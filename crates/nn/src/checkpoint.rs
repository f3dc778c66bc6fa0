//! Self-describing binary serialization of network parameters.
//!
//! The model Zoo in fairMS stores checkpoints as opaque byte blobs; this
//! module defines that format. It is deliberately independent of any
//! external serialization crate — the wire format is part of the system
//! under test (the paper's storage experiments compare serialization
//! codecs, see `fairdms-datastore`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"FDMSCKPT"                     8 bytes
//! version u32                            4 bytes
//! n_params u32                           4 bytes
//! repeat n_params times:
//!   rank u32, dims [rank × u32], data [numel × f32]
//! ```

use crate::layers::Sequential;
use fairdms_tensor::Tensor;

const MAGIC: &[u8; 8] = b"FDMSCKPT";
const VERSION: u32 = 1;
/// Highest tensor rank a checkpoint may declare (the wire codec's limit).
const MAX_RANK: usize = 8;

/// Errors produced when loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
    /// The blob ended prematurely or had trailing garbage.
    Truncated,
    /// The blob declares something no checkpoint holds (a tensor rank over
    /// the limit, an element count that overflows).
    Invalid(String),
    /// Parameter count or a parameter shape differs from the target network.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
        /// Shape stored in the checkpoint.
        stored: Vec<usize>,
        /// Shape expected by the network.
        expected: Vec<usize>,
    },
    /// The checkpoint holds a different number of parameters than the network.
    CountMismatch {
        /// Parameters in the checkpoint.
        stored: usize,
        /// Parameters in the network.
        expected: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a fairDMS checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated or has trailing bytes"),
            CheckpointError::Invalid(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::ShapeMismatch { index, stored, expected } => write!(
                f,
                "parameter {index}: stored shape {stored:?} does not match network shape {expected:?}"
            ),
            CheckpointError::CountMismatch { stored, expected } => write!(
                f,
                "checkpoint has {stored} parameters but the network has {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes all parameters of `net` into a checkpoint blob.
pub fn save(net: &Sequential) -> Vec<u8> {
    let params = net.params();
    let mut out = Vec::with_capacity(
        16 + params
            .iter()
            .map(|p| 4 + 4 * p.value.rank() + 4 * p.numel())
            .sum::<usize>(),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&(p.value.rank() as u32).to_le_bytes());
        for &d in p.value.shape() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in p.value.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Restores parameters into `net` from a checkpoint blob produced by
/// [`save`]. The network architecture (parameter count and shapes) must
/// match exactly.
pub fn load(net: &mut Sequential, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tensors = read_tensors(bytes)?;
    let mut params = net.params_mut();
    if tensors.len() != params.len() {
        return Err(CheckpointError::CountMismatch {
            stored: tensors.len(),
            expected: params.len(),
        });
    }
    for (i, (t, p)) in tensors.iter().zip(params.iter()).enumerate() {
        if t.shape() != p.value.shape() {
            return Err(CheckpointError::ShapeMismatch {
                index: i,
                stored: t.shape().to_vec(),
                expected: p.value.shape().to_vec(),
            });
        }
    }
    for (t, p) in tensors.into_iter().zip(params.iter_mut()) {
        p.value = t;
        p.zero_grad();
    }
    Ok(())
}

/// Parses a checkpoint into raw tensors without needing a network.
pub fn read_tensors(bytes: &[u8]) -> Result<Vec<Tensor>, CheckpointError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.take(8)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = cursor.u32()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    // Counts read from the blob are input: each is checked against the
    // bytes that remain before anything is allocated for it.
    let n = cursor.count(4)?;
    let mut tensors = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = cursor.u32()? as usize;
        if rank > MAX_RANK {
            return Err(CheckpointError::Invalid(format!(
                "tensor rank {rank} over the limit of {MAX_RANK}"
            )));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = cursor.u32()? as usize;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| CheckpointError::Invalid("tensor element count overflows".into()))?;
            dims.push(d);
        }
        let raw = cursor.take(numel.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
            .collect();
        tensors.push(Tensor::from_vec(data, &dims));
    }
    if cursor.pos != bytes.len() {
        return Err(CheckpointError::Truncated);
    }
    Ok(tensors)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.bytes.len() - self.pos {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }

    /// A `u32` element count, refused when `count × min_bytes` is more than
    /// the blob still holds.
    fn count(&mut self, min_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.bytes.len() - self.pos => Ok(n),
            _ => Err(CheckpointError::Truncated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense};
    use fairdms_tensor::rng::TensorRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ])
    }

    #[test]
    fn save_load_roundtrip_restores_outputs() {
        let a = net(0);
        let mut b = net(99); // different weights
        let mut rng = TensorRng::seeded(1);
        let x = rng.uniform(&[5, 3], -1.0, 1.0);
        let ya = a.infer(&x);
        let blob = save(&a);
        load(&mut b, &blob).unwrap();
        assert_eq!(b.infer(&x), ya);
    }

    #[test]
    fn load_rejects_bad_magic_and_truncation() {
        let a = net(0);
        let mut blob = save(&a);
        let mut corrupted = blob.clone();
        corrupted[0] = b'X';
        assert_eq!(
            load(&mut net(1), &corrupted),
            Err(CheckpointError::BadMagic)
        );
        blob.truncate(blob.len() - 3);
        assert_eq!(load(&mut net(1), &blob), Err(CheckpointError::Truncated));
    }

    #[test]
    fn load_rejects_architecture_mismatch() {
        let a = net(0);
        let blob = save(&a);
        let mut rng = TensorRng::seeded(2);
        let mut other = Sequential::new(vec![Box::new(Dense::new(3, 5, &mut rng))]);
        match load(&mut other, &blob) {
            Err(CheckpointError::CountMismatch { .. })
            | Err(CheckpointError::ShapeMismatch { .. }) => {}
            other => panic!("expected mismatch error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let a = net(0);
        let mut blob = save(&a);
        blob.push(0);
        assert_eq!(load(&mut net(1), &blob), Err(CheckpointError::Truncated));
    }

    #[test]
    fn forged_counts_are_refused_before_allocating() {
        let header = |n: u32| {
            let mut blob = MAGIC.to_vec();
            blob.extend_from_slice(&VERSION.to_le_bytes());
            blob.extend_from_slice(&n.to_le_bytes());
            blob
        };
        // A tensor count the blob cannot hold.
        assert_eq!(
            read_tensors(&header(u32::MAX)),
            Err(CheckpointError::Truncated)
        );
        // A rank over the limit, and dims whose product overflows `usize`.
        let mut blob = header(1);
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_tensors(&blob),
            Err(CheckpointError::Invalid(_))
        ));
        let mut blob = header(1);
        blob.extend_from_slice(&8u32.to_le_bytes());
        blob.extend_from_slice(&[0xFF; 32]);
        assert!(matches!(
            read_tensors(&blob),
            Err(CheckpointError::Invalid(_))
        ));
        // An element count that fits `usize` but not the blob.
        let mut blob = header(1);
        blob.extend_from_slice(&2u32.to_le_bytes());
        blob.extend_from_slice(&[0xFF; 8]);
        assert_eq!(read_tensors(&blob), Err(CheckpointError::Truncated));
    }

    #[test]
    fn read_tensors_exposes_shapes() {
        let a = net(0);
        let tensors = read_tensors(&save(&a)).unwrap();
        assert_eq!(tensors.len(), 4);
        assert_eq!(tensors[0].shape(), &[4, 3]);
        assert_eq!(tensors[1].shape(), &[4]);
    }
}

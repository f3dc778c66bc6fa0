//! `EmbedCache::embed`, the data-reuse plane's one probe-and-fill path
//! (DESIGN.md §8): a cold batch is forwarded whole, a partly warm batch
//! forwards only its misses, a fully warm batch none, and a disabled table
//! is the forward pass itself.

use fairdms_core::reuse::{EmbedCache, EmbedCacheConfig, EmbedCacheStats};
use fairdms_tensor::Tensor;
use std::cell::RefCell;

fn rows(n: usize) -> Tensor {
    let data: Vec<f32> = (0..n * 8)
        .map(|i| (i / 8) as f32 + (i % 8) as f32 * 0.5)
        .collect();
    Tensor::from_vec(data, &[n, 8])
}

#[test]
fn embed_forwards_only_the_misses() {
    // A row-independent "embedder" that records every batch it sees.
    let batches = RefCell::new(Vec::new());
    let forward = |x: &Tensor| {
        batches.borrow_mut().push(x.shape()[0]);
        let z: Vec<f32> = (0..x.shape()[0])
            .flat_map(|i| {
                let r = x.row(i);
                [r[0], r[7], r.iter().sum(), r[0] * r[7]]
            })
            .collect();
        Tensor::from_vec(z, &[x.shape()[0], 4])
    };
    let cache = EmbedCache::new(EmbedCacheConfig { capacity: 64 }, Default::default());
    let (first, all) = (rows(4), rows(6));

    // Cold: the whole batch is forwarded once, its output returned.
    assert_eq!(cache.embed(&first, 4, forward), forward(&first));
    // Warm prefix: only the two new rows reach the forward pass.
    assert_eq!(cache.embed(&all, 4, forward), forward(&all));
    // Every row resident: no forward pass at all.
    assert_eq!(cache.embed(&all, 4, forward), forward(&all));
    assert_eq!(*batches.borrow(), [4, 4, 2, 6, 6]);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (4 + 6, 4 + 2));

    // A disabled table is the forward pass itself and counts nothing.
    let off = EmbedCache::new(EmbedCacheConfig { capacity: 0 }, Default::default());
    batches.borrow_mut().clear();
    assert_eq!(off.embed(&all, 4, forward), forward(&all));
    assert_eq!(*batches.borrow(), [6, 6]);
    assert_eq!(off.stats(), EmbedCacheStats::default());
}

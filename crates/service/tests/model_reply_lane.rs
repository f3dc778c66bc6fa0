//! Model checks for the server connection's reply hand-over,
//! [`fairdms_service::net::sequencer`]: the reader thread writes a reply
//! itself at window 1 — as much of it as the socket takes without waiting,
//! the tail going to the sequencer — and queues it to the sequencer
//! otherwise (DESIGN.md §13). Under every interleaving of {reader, actor,
//! sequencer} frames must leave in request order, and no two frames' bytes
//! may interleave.
//!
//! Run with `cargo test -p fairdms-service --features check --test model_reply_lane`.
//! In a default build this file compiles to nothing.
#![cfg(feature = "check")]

use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use fairdms_check::atomic::AtomicUsize;
use fairdms_check::{FailureKind, Model};
use fairdms_service::metrics::NetCounters;
use fairdms_service::net::frame::{read_frame, FrameKind};
use fairdms_service::net::sequencer::{reply_lane, TryWrite};
use fairdms_service::Reply;
use parking_lot::Mutex;

/// The socket: bytes in the order they reached it. Every `write` lands in
/// two halves with a scheduling point between them, so two threads writing
/// at once tear each other's frames.
#[derive(Clone, Default)]
struct Wire(Arc<Mutex<Vec<u8>>>);

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (head, tail) = buf.split_at(buf.len() / 2);
        self.0.lock().extend_from_slice(head);
        self.0.lock().extend_from_slice(tail);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The reader's handle onto the wire. The socket is full for frame `cut`
/// (counting the frames this handle is offered from 0): it takes only that
/// frame's first half.
struct Direct {
    wire: Wire,
    offered: usize,
    cut: usize,
}

impl TryWrite for Direct {
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let take = if self.offered == self.cut {
            buf.len() / 2
        } else {
            buf.len()
        };
        self.offered += 1;
        self.wire.write(&buf[..take])
    }
}

impl Wire {
    /// The seqs of the frames on the wire, in order; panics on a torn one.
    fn seqs(&self) -> Vec<u64> {
        let bytes = self.0.lock().clone();
        let mut rest = &bytes[..];
        let mut seqs = Vec::new();
        while !rest.is_empty() {
            let frame = read_frame(&mut rest, 1 << 16).expect("torn frame on the wire");
            assert_eq!(frame.kind, FrameKind::ReplyOk);
            seqs.push(frame.seq);
        }
        seqs
    }
}

/// One connection serving `plan` (`true` = a write, dispatched to an actor
/// thread; `false` = a read, resolved by the reader), all at window 1 as
/// far as the reader can tell — which door each reply takes is up to the
/// schedule. The socket is full for the `cut`-th reply that goes inline.
fn serve(plan: &[bool], cut: usize) {
    let wire = Wire::default();
    let counters = Arc::new(NetCounters::new());
    let (mut lane, mut sequencer) = reply_lane(wire.clone(), Arc::clone(&counters));
    let mut direct = Direct {
        wire: wire.clone(),
        offered: 0,
        cut,
    };
    let sequencer = fairdms_check::thread::spawn(move || sequencer.run());
    let mut actors = Vec::new();
    for (i, &write) in plan.iter().enumerate() {
        let seq = i as u64 + 1;
        if write {
            let (tx, rx) = crossbeam_channel::bounded(1);
            lane.dispatched(seq, 0, rx);
            actors.push(fairdms_check::thread::spawn(move || {
                let _ = tx.send(Ok(Reply::Published { zoo_id: i }));
            }));
        } else {
            lane.resolved(&mut direct, seq, 0, Ok(Reply::Certainty(0.5)), false)
                .expect("the wire never fails");
        }
    }
    drop(lane);
    assert!(sequencer.join().expect("sequencer panicked"), "drained");
    for actor in actors {
        actor.join().expect("actor panicked");
    }
    let expected: Vec<u64> = (1..=plan.len() as u64).collect();
    assert_eq!(wire.seqs(), expected, "replies left out of request order");
    let stats = counters.snapshot();
    assert_eq!(stats.frames_out, plan.len() as u64);
    assert!(stats.replies_inline <= plan.iter().filter(|w| !**w).count() as u64);
}

/// Read, write, read, read: the first read finds the lane idle, the write
/// is always sequenced, and the reads behind it go either way depending on
/// whether the sequencer has flushed by then. The second of them to go
/// inline meets a full socket, so its tail and whatever follows it are
/// sequenced.
#[test]
fn reply_lane_keeps_request_order_exhaustive() {
    let report =
        Model::with_preemption_bound(3).check_exhaustive(|| serve(&[false, true, false, false], 1));
    report.assert_pass("reply lane: read, write, read, read");
    report.assert_min_interleavings(1_000, "reply lane: read, write, read, read");
    assert!(
        report.exhausted,
        "schedule space unexpectedly too large to exhaust ({} explored)",
        report.interleavings
    );
}

/// Seeded random sweep over a deeper stream: two writes in flight at once
/// with reads before, between and behind them, the first reply cut short.
#[test]
fn reply_lane_random_sweep() {
    let plan = [false, true, false, true, false, false, true, false];
    let report = Model::default().check_random(0xfa1d_0017, 400, || serve(&plan, 0));
    report.assert_pass("reply lane random sweep");
}

// ---------------------------------------------------------------------------
// Mutation: a message counted as flushed before the flush
// ---------------------------------------------------------------------------

/// The hand-over reduced to its skeleton — seqs instead of frames, a
/// buffer-then-flush sequencer — with the sequencer's subtraction moved
/// *ahead of* its flush. The reader can now see zero while a reply still
/// sits in the sequencer's buffer, write the next one inline, and overtake
/// it.
fn flushed_too_early_scenario() {
    let wire = Arc::new(Mutex::new(Vec::new()));
    let unflushed = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = crossbeam_channel::unbounded::<u64>();
    let sequencer = {
        let (wire, unflushed) = (Arc::clone(&wire), Arc::clone(&unflushed));
        fairdms_check::thread::spawn(move || {
            while let Ok(first) = rx.recv() {
                let mut buffered = vec![first];
                while let Ok(next) = rx.try_recv() {
                    buffered.push(next);
                }
                // BUG (deliberate): the real sequencer subtracts after the
                // flush below.
                unflushed.fetch_sub(buffered.len(), Ordering::Release);
                wire.lock().extend(buffered);
            }
        })
    };
    // Request 2 is a write: always sequenced.
    for seq in 1..=3u64 {
        if seq != 2 && unflushed.load(Ordering::Acquire) == 0 {
            wire.lock().push(seq);
        } else {
            unflushed.fetch_add(1, Ordering::SeqCst);
            tx.send(seq).expect("sequencer alive");
        }
    }
    drop(tx);
    sequencer.join().expect("sequencer panicked");
    assert_eq!(*wire.lock(), [1, 2, 3], "a reply overtook a queued one");
}

/// Checked-in replay trace reproducing the overtaking (regression: the
/// model must keep catching this exact schedule without a search).
/// Regenerate with `flushed_too_early_is_caught` if a shim/scheduler
/// change legitimately shifts yield points.
const FLUSHED_TOO_EARLY_TRACE: &str = "0,0,0,0,0,1,1,1,1,0,0,1,1,0,0";

#[test]
fn flushed_too_early_is_caught() {
    let model = Model::with_preemption_bound(2);
    let report = model.check_exhaustive(flushed_too_early_scenario);
    let failure = report
        .failure
        .expect("the model missed the early subtraction");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
    assert!(
        failure.message.contains("overtook"),
        "wrong diagnosis: {}",
        failure.message
    );
    let replay = model.replay(&failure.trace.to_string(), flushed_too_early_scenario);
    let replayed = replay.failure.expect("trace did not reproduce the failure");
    assert_eq!(replayed.kind, FailureKind::Panic);
}

/// The checked-in trace (no search involved) still reproduces it.
#[test]
fn flushed_too_early_checked_in_trace_replays() {
    let replay =
        Model::with_preemption_bound(2).replay(FLUSHED_TOO_EARLY_TRACE, flushed_too_early_scenario);
    let failure = replay
        .failure
        .expect("checked-in trace no longer reproduces the early-subtraction overtake");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
}

//! Self-tests of the model-checking scheduler and its dynamic analyses.
//!
//! These run in the tier-1 suite with or without the `check` feature:
//! the scheduler and the `rt` hook layer are always compiled (the
//! feature only switches the *wrappers* used by product code), so the
//! models below drive the hooks directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fairdms_check::{rt, thread, FailureKind, Model};

/// Two threads, two yield points each: exploration must exhaust the
/// bounded space and see well more than one interleaving.
#[test]
fn exhaustive_explores_and_terminates() {
    let report = Model::default().check_exhaustive(|| {
        let a = thread::spawn(|| {
            rt::op_yield("a1");
            rt::op_yield("a2");
        });
        let b = thread::spawn(|| {
            rt::op_yield("b1");
            rt::op_yield("b2");
        });
        a.join().unwrap();
        b.join().unwrap();
    });
    report.assert_pass("two yielding threads");
    assert!(report.exhausted, "bounded DFS should exhaust: {report:?}");
    assert!(
        report.interleavings >= 6,
        "expected real schedule diversity, got {}",
        report.interleavings
    );
}

/// The model actually exercises different orders: with two racing
/// increments of a "check-then-act" counter, some schedule must lose an
/// update, and the exhaustive explorer must find it.
#[test]
fn exhaustive_finds_lost_update() {
    let report = Model::default().check_exhaustive(|| {
        let v = Arc::new(AtomicUsize::new(0));
        let mk = |v: Arc<AtomicUsize>| {
            thread::spawn(move || {
                rt::op_yield("read");
                let seen = v.load(Ordering::SeqCst);
                rt::op_yield("write");
                v.store(seen + 1, Ordering::SeqCst);
            })
        };
        let (a, b) = (mk(Arc::clone(&v)), mk(Arc::clone(&v)));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
    });
    let f = report.failure.expect("lost update must be discovered");
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(!f.trace.0.is_empty());
}

/// A thread parked on a resource nobody releases is a deadlock, and the
/// diagnostic names the blocked site.
#[test]
fn deadlock_detected() {
    let report = Model::default().check_exhaustive(|| {
        let t = thread::spawn(|| {
            rt::block_on(0x4000, false, "wait for nothing");
        });
        t.join().unwrap();
    });
    let f = report.failure.expect("deadlock must be found");
    assert_eq!(f.kind, FailureKind::Deadlock);
    assert!(f.message.contains("wait for nothing"), "{}", f.message);
}

/// A timeoutable wait resolves instead of deadlocking, reporting
/// `Wake::Timeout`.
#[test]
fn timeoutable_wait_fires_instead_of_deadlock() {
    let report = Model::default().check_exhaustive(|| {
        let w = rt::block_on(0x5000, true, "timed wait");
        assert_eq!(w, rt::Wake::Timeout);
    });
    report.assert_pass("timed wait resolves");
}

/// Opposite lock acquisition orders form a cycle in the lock-order
/// graph, even when the schedule itself does not deadlock.
#[test]
fn lock_order_cycle_detected() {
    const A: u64 = 0x6000;
    const B: u64 = 0x6001;
    let report = Model::default().check_exhaustive(|| {
        // A then B…
        rt::lock_acquired(A);
        rt::lock_acquired(B);
        rt::lock_released(B);
        rt::lock_released(A);
        // …then B then A on the same thread: same-execution cycle.
        rt::lock_acquired(B);
        rt::lock_acquired(A);
        rt::lock_released(A);
        rt::lock_released(B);
    });
    let f = report.failure.expect("cycle must be found");
    assert_eq!(f.kind, FailureKind::LockOrderCycle);
    assert!(f.message.contains("->"), "{}", f.message);
}

/// Random exploration is reproducible: the same seed yields the same
/// failing trace.
#[test]
fn random_mode_is_seed_deterministic() {
    let model = || {
        let v = Arc::new(AtomicUsize::new(0));
        let mk = |v: Arc<AtomicUsize>| {
            thread::spawn(move || {
                rt::op_yield("read");
                let seen = v.load(Ordering::SeqCst);
                rt::op_yield("write");
                v.store(seen + 1, Ordering::SeqCst);
            })
        };
        let (a, b) = (mk(Arc::clone(&v)), mk(Arc::clone(&v)));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(v.load(Ordering::SeqCst), 2, "lost update");
    };
    let r1 = Model::default().check_random(42, 64, model);
    let r2 = Model::default().check_random(42, 64, model);
    match (&r1.failure, &r2.failure) {
        (Some(f1), Some(f2)) => {
            assert_eq!(f1.trace, f2.trace, "same seed, same schedule");
            assert_eq!(f1.seed, f2.seed);
        }
        (None, None) => {}
        other => panic!("divergent outcomes across identical seeds: {other:?}"),
    }
}

/// A panic on a spawned model thread is captured as a failure (not a
/// process abort), and the explorer keeps the test thread alive.
#[test]
fn model_thread_panic_is_captured() {
    let report = Model::default().check_exhaustive(|| {
        let t = thread::spawn(|| {
            rt::op_yield("pre");
            panic!("boom from model thread");
        });
        let _ = t.join();
    });
    let f = report.failure.expect("panic must be reported");
    assert_eq!(f.kind, FailureKind::Panic);
    assert!(f.message.contains("boom"), "{}", f.message);
}

/// Replay of a recorded passing schedule completes without failure and
/// a malformed trace is rejected up front.
#[test]
fn trace_parse_roundtrip() {
    use fairdms_check::Trace;
    let t = Trace(vec![0, 1, 1, 2]);
    let s = t.to_string();
    assert_eq!(Trace::parse(&s).unwrap(), t);
    assert!(Trace::parse("0,x,2").is_err());
    assert_eq!(Trace::parse("  ").unwrap(), Trace(vec![]));
}

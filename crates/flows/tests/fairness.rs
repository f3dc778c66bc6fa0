//! Multi-tenant fairness and isolation contracts of [`JobPool`]
//! (DESIGN.md §14).
//!
//! These are the starvation guarantees the service layer's shared training
//! executor leans on: a tenant flooding retrain jobs can neither starve
//! another tenant's single update nor cancel its work. The tests hold the
//! pool's only worker on a channel while backlogs build, so every
//! scheduling decision happens against a fully queued state and the
//! assertions are deterministic — no timing, no sleeps.

use fairdms_flows::jobs::{CancelToken, JobPool};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLOODER: u32 = 1;
const VICTIM: u32 = 2;

/// Holds the pool's single worker until the returned sender fires, so jobs
/// queued behind it cannot drain while a test stages its backlog.
fn hold_worker(pool: &JobPool) -> crossbeam_channel::Sender<()> {
    let (hold_tx, hold_rx) = crossbeam_channel::bounded::<()>(1);
    let (running_tx, running_rx) = crossbeam_channel::bounded::<()>(1);
    pool.spawn(move |_| {
        running_tx.send(()).unwrap();
        let _ = hold_rx.recv();
    });
    running_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("holder job never started");
    hold_tx
}

/// Tenant A floods 64 retrain-shaped jobs; tenant B submits one update.
/// Round-robin must serve B within `n − 1` jobs — here one A-job — no
/// matter how deep A's backlog is.
#[test]
fn flooding_tenant_cannot_starve_a_single_job() {
    let pool = JobPool::new(1, "starve-pool");
    let hold = hold_worker(&pool);
    let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..64 {
        let order = Arc::clone(&order);
        pool.try_spawn_for(FLOODER, CancelToken::new(), move |_| {
            order.lock().push(FLOODER);
        })
        .unwrap();
    }
    let order2 = Arc::clone(&order);
    pool.try_spawn_for(VICTIM, CancelToken::new(), move |_| {
        order2.lock().push(VICTIM);
    })
    .unwrap();
    hold.send(()).unwrap();
    drop(pool); // drains all 65 jobs, then joins
    let got = order.lock().clone();
    assert_eq!(got.len(), 65);
    let victim_pos = got
        .iter()
        .position(|&t| t == VICTIM)
        .expect("victim job must run");
    assert!(
        victim_pos <= 1,
        "round-robin bounds the victim's wait to one flooder job, \
         but it ran at position {victim_pos}: {got:?}"
    );
}

/// Supersession is per-tenant by construction: a token cancels exactly the
/// job it was minted for, so tenant A superseding its own in-flight update
/// can never touch tenant B's queued or running work — and vice versa.
#[test]
fn supersession_never_crosses_tenants() {
    let pool = JobPool::new(1, "cross-supersede-pool");
    let log: Arc<Mutex<Vec<(u32, bool)>>> = Arc::new(Mutex::new(Vec::new()));

    // Tenant A's in-flight job: spins until its own token is raised, like
    // a trainer polling at epoch boundaries.
    let a_token = CancelToken::new();
    let la = Arc::clone(&log);
    pool.try_spawn_for(FLOODER, a_token.clone(), move |ctl| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ctl.is_cancelled() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        la.lock().push((FLOODER, ctl.is_cancelled()));
    })
    .unwrap();

    // Tenant B's job queued behind it, with its own token.
    let b_token = CancelToken::new();
    let lb = Arc::clone(&log);
    pool.try_spawn_for(VICTIM, b_token.clone(), move |ctl| {
        lb.lock().push((VICTIM, ctl.is_cancelled()));
    })
    .unwrap();

    // A supersedes its own job. B's token must stay untouched.
    a_token.cancel();
    assert!(!b_token.is_cancelled(), "cancel leaked across tenants");
    drop(pool); // A winds down cancelled, then B runs clean

    let got = log.lock().clone();
    assert_eq!(
        got,
        vec![(FLOODER, true), (VICTIM, false)],
        "A must observe its cancel; B must run un-cancelled"
    );
    assert!(!b_token.is_cancelled());
}

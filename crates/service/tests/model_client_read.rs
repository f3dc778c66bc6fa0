//! Model checks for who reads a reply on a [`PipelinedClient`] connection
//! (DESIGN.md §13): a `call` made with nothing in flight reads its own
//! reply on the calling thread; everything else is read by the demux
//! thread. Under every interleaving of {self-reading caller, a second
//! caller, a `submit` from another handle, the demux thread} each reply
//! frame must be read by exactly one thread, in seq order, and resolve its
//! own request exactly once.
//!
//! Run with `cargo test -p fairdms-service --features check --test model_client_read`.
//! In a default build this file compiles to nothing.
#![cfg(feature = "check")]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_channel::{Receiver, Sender};
use fairdms_check::atomic::AtomicU64;
use fairdms_check::{FailureKind, Model};
use fairdms_service::net::client::WriteHalf;
use fairdms_service::net::codec::{decode_request, encode_error};
use fairdms_service::net::frame::{read_frame, write_frame, FrameKind};
use fairdms_service::net::PipelinedClient;
use fairdms_service::{Request, ServiceError};
use parking_lot::Mutex;

/// The far end, folded into the client's write half: every complete
/// request frame written is answered on the spot, in order, with an error
/// naming the model it asked for — a reply only its own request can own.
struct Echo {
    unparsed: Vec<u8>,
    replies: Arc<Mutex<Option<Sender<Vec<u8>>>>>,
}

impl Write for Echo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.unparsed.extend_from_slice(buf);
        loop {
            let mut rest = &self.unparsed[..];
            let Ok(frame) = read_frame(&mut rest, 1 << 16) else {
                return Ok(buf.len()); // an incomplete tail: wait for more
            };
            let consumed = self.unparsed.len() - rest.len();
            self.unparsed.drain(..consumed);
            let Ok(Request::FetchModel { zoo_id }) = decode_request(&frame.payload) else {
                panic!("the models only fetch");
            };
            let mut reply = Vec::new();
            let err = encode_error(&ServiceError::UnknownModel(zoo_id));
            write_frame(
                &mut reply,
                frame.seq,
                frame.tenant,
                FrameKind::ReplyErr,
                &err,
            );
            if let Some(tx) = &*self.replies.lock() {
                let _ = tx.send(reply);
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WriteHalf for Echo {
    fn shut(&self) {
        // Hanging up the reply channel is the EOF a blocked reader sees.
        self.replies.lock().take();
    }
}

/// The client's read half: reply bytes as the far end sent them. An empty
/// pipe parks the reading thread in the scheduler, as a socket would in
/// the kernel.
struct Pipe {
    replies: Receiver<Vec<u8>>,
    current: VecDeque<u8>,
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.current.is_empty() {
            match self.replies.recv() {
                Ok(bytes) => self.current.extend(bytes),
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.current.len());
        for (slot, byte) in buf.iter_mut().zip(self.current.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }
}

fn loopback_client() -> PipelinedClient {
    let (tx, rx) = crossbeam_channel::unbounded();
    let write_half = Echo {
        unparsed: Vec::new(),
        replies: Arc::new(Mutex::new(Some(tx))),
    };
    let read_half = Pipe {
        replies: rx,
        current: VecDeque::new(),
    };
    PipelinedClient::over(Box::new(write_half), Box::new(read_half), 0).expect("demux thread")
}

fn fetch(zoo_id: usize) -> Request {
    Request::FetchModel { zoo_id }
}

fn assert_own_reply(result: fairdms_service::ServiceResult, zoo_id: usize) {
    assert_eq!(
        result.expect_err("the echo answers errors"),
        ServiceError::UnknownModel(zoo_id),
        "a request was resolved with someone else's reply"
    );
}

/// A caller that finds the connection idle (and reads for itself), a
/// second caller and a `submit` from another handle racing it, and the
/// demux thread serving whichever of them had to take a ticket. Four
/// threads: one preemption is what the schedule space affords (two passes
/// 20,000 interleavings unexhausted), and is what the bug needs — the
/// self-reader descheduled between its two locks.
#[test]
fn self_read_vs_demux_exhaustive() {
    let report = Model::with_preemption_bound(1).check_exhaustive(|| {
        let client = loopback_client();
        let second = {
            let client = client.clone();
            fairdms_check::thread::spawn(move || assert_own_reply(client.call(&fetch(2)), 2))
        };
        let submitter = {
            let handle = client.for_tenant(7);
            fairdms_check::thread::spawn(move || {
                assert_own_reply(handle.submit(&fetch(3)).wait(), 3)
            })
        };
        assert_own_reply(client.call(&fetch(1)), 1);
        second.join().expect("second caller panicked");
        submitter.join().expect("submitter panicked");
        assert!(!client.is_closed(), "a reply reached the wrong reader");
    });
    report.assert_pass("client self-read vs demux");
    report.assert_min_interleavings(1_000, "client self-read vs demux");
    assert!(
        report.exhausted,
        "schedule space unexpectedly too large to exhaust ({} explored)",
        report.interleavings
    );
}

/// Seeded random sweep over a deeper workload: two callers making two
/// calls each around a three-deep `submit` window.
#[test]
fn self_read_vs_demux_random_sweep() {
    let report = Model::default().check_random(0xfa1d_0018, 300, || {
        let client = loopback_client();
        let callers: Vec<_> = [10, 20]
            .into_iter()
            .map(|base| {
                let client = client.clone();
                fairdms_check::thread::spawn(move || {
                    for id in [base, base + 1] {
                        assert_own_reply(client.call(&fetch(id)), id);
                    }
                })
            })
            .collect();
        let window: Vec<_> = (30..33).map(|id| (id, client.submit(&fetch(id)))).collect();
        for (id, ticket) in window {
            assert_own_reply(ticket.wait(), id);
        }
        for caller in callers {
            caller.join().expect("caller panicked");
        }
        assert!(!client.is_closed());
    });
    report.assert_pass("client self-read random sweep");
}

// ---------------------------------------------------------------------------
// Mutation: the read half taken after the writer lock is released
// ---------------------------------------------------------------------------

/// The client's hand-over reduced to its skeleton: the wire is a queue of
/// reply seqs (the far end answers the moment a request is written, in
/// order), a ticket is a seq on a channel, and whoever holds the read half
/// pops the wire and checks it got its own reply.
struct Conn {
    wire: Mutex<VecDeque<u64>>,
    read_half: Mutex<()>,
    answered_seq: AtomicU64,
}

impl Conn {
    fn read_reply(&self, _turn: &parking_lot::MutexGuard<'_, ()>, seq: u64) {
        let got = self.wire.lock().pop_front();
        assert_eq!(got, Some(seq), "read someone else's reply");
        self.answered_seq.store(seq, Ordering::SeqCst);
    }
}

struct Handle {
    conn: Arc<Conn>,
    /// The writer lock: next seq to assign.
    writer: Mutex<u64>,
    tickets: Sender<u64>,
}

impl Handle {
    fn call(&self) {
        let mut next = self.writer.lock();
        let seq = *next;
        *next += 1;
        self.conn.wire.lock().push_back(seq);
        if self.conn.answered_seq.load(Ordering::SeqCst) + 1 != seq {
            self.tickets.send(seq).expect("demux alive");
            return;
        }
        // BUG (deliberate): the real client takes the read half *before*
        // releasing the writer lock, so no later request's ticket can
        // reach the demux thread ahead of this call's turn.
        drop(next);
        let turn = self.conn.read_half.lock();
        self.conn.read_reply(&turn, seq);
    }
}

fn late_read_half_scenario() {
    let (tickets, ticket_rx) = crossbeam_channel::unbounded();
    let conn = Arc::new(Conn {
        wire: Mutex::new(VecDeque::new()),
        read_half: Mutex::new(()),
        answered_seq: AtomicU64::new(0),
    });
    let demux = {
        let conn = Arc::clone(&conn);
        fairdms_check::thread::spawn(move || {
            while let Ok(seq) = ticket_rx.recv() {
                let turn = conn.read_half.lock();
                conn.read_reply(&turn, seq);
            }
        })
    };
    let handle = Arc::new(Handle {
        conn,
        writer: Mutex::new(1),
        tickets,
    });
    let second = {
        let handle = Arc::clone(&handle);
        fairdms_check::thread::spawn(move || handle.call())
    };
    handle.call();
    second.join().expect("second caller panicked");
    // Hanging up the ticket channel ends the demux thread.
    drop(handle);
    demux.join().expect("demux panicked");
}

/// Checked-in replay trace reproducing the stolen reply (regression: the
/// model must keep catching this exact schedule without a search).
/// Regenerate with `late_read_half_is_caught` if a shim/scheduler change
/// legitimately shifts yield points.
const LATE_READ_HALF_TRACE: &str = "0,0,0,0,0,1,1,2,2,2,2,2,1,1,1,1";

#[test]
fn late_read_half_is_caught() {
    let model = Model::with_preemption_bound(2);
    let report = model.check_exhaustive(late_read_half_scenario);
    let failure = report
        .failure
        .expect("the model missed the late read-half acquisition");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
    assert!(
        failure.message.contains("someone else's reply"),
        "wrong diagnosis: {}",
        failure.message
    );
    let replay = model.replay(&failure.trace.to_string(), late_read_half_scenario);
    let replayed = replay.failure.expect("trace did not reproduce the failure");
    assert_eq!(replayed.kind, FailureKind::Panic);
}

/// The checked-in trace (no search involved) still reproduces it.
#[test]
fn late_read_half_checked_in_trace_replays() {
    let replay =
        Model::with_preemption_bound(2).replay(LATE_READ_HALF_TRACE, late_read_half_scenario);
    let failure = replay
        .failure
        .expect("checked-in trace no longer reproduces the stolen reply");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
}

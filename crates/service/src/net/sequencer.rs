//! The reply hand-over of one server connection (DESIGN.md §13): which
//! thread writes a reply, and when.
//!
//! A connection's reader thread resolves every read itself and dispatches
//! every write to the deployment's actor. Replies leave the socket in
//! request order through one of two doors, the two ends [`reply_lane`]
//! returns:
//!
//! * **inline** — [`ReplyLane::resolved`] writes the reply the reader just
//!   computed through the reader's own handle onto the socket, as one
//!   `write` of the whole frame that never waits for the peer
//!   ([`TryWrite`]), when the connection is at window 1: nothing handed to
//!   the sequencer is still unflushed, and no further request bytes are
//!   buffered behind this one. The reply costs no thread wake-up on the
//!   server. Whatever a full socket did not take — the peer has stopped
//!   reading — is queued as the frame's tail, so the reader goes back to
//!   reading requests;
//! * **sequenced** — otherwise the reply (or, for a dispatched request, the
//!   receiver the actor will resolve) is queued to the connection's
//!   sequencer thread, [`Sequencer::run`], which writes in queue order —
//!   blocking on an unresolved receiver, in-order delivery being the
//!   contract — and flushes when its queue goes momentarily empty, so a
//!   burst of pipelined replies costs one syscall, not one per reply.
//!
//! One counter joins the doors: `unflushed`, the messages queued whose
//! bytes have not reached the socket. The reader adds before it queues and
//! writes inline only at zero; the sequencer subtracts only *after* its
//! flush. So an inline frame can neither overtake a queued one nor land
//! between two halves of one — `tests/model_reply_lane.rs` checks both
//! under every interleaving of {reader, actor, sequencer} — and because the
//! inline write does not wait, a reader never blocks on the socket at all:
//! a peer that writes a whole window before it reads its first reply is
//! served as it always was, the sequencer alone waiting on it.

use crate::api::{ServiceError, ServiceResult, TenantId};
use crate::metrics::NetCounters;
use crate::net::codec::{encode_error, encode_reply};
use crate::net::frame::{write_frame, FrameKind};
use crossbeam_channel::{unbounded, Receiver, Sender};
use fairdms_check::atomic::AtomicUsize;
use std::io::{self, BufWriter, Write};
use std::mem;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What the reader queues to the sequencer, in request order. Every
/// variant echoes the request's `seq` and `tenant` on its reply frame.
enum OutMsg {
    /// A dispatched request: echo `seq` on whatever the service resolves.
    Reply {
        seq: u64,
        tenant: TenantId,
        rx: Receiver<ServiceResult>,
    },
    /// A request already answered on the reader thread that could not go
    /// out inline: the sequencer never waits on these. Boxed so the queued
    /// message stays channel-slot-sized regardless of reply size.
    Ready {
        seq: u64,
        tenant: TenantId,
        result: Box<ServiceResult>,
    },
    /// What a full socket left of a frame the reader began inline:
    /// `frame[from..]`, already counted.
    Tail { frame: Vec<u8>, from: usize },
    /// The peer broke the protocol: answer with a `ProtocolError` frame
    /// (after everything queued before it) and close.
    Fatal {
        seq: u64,
        tenant: TenantId,
        msg: String,
    },
}

/// The reader's handle onto the socket, as the inline door uses it.
pub trait TryWrite {
    /// One write that never waits for the peer: how many leading bytes of
    /// `buf` the socket took — all of them unless it is full, in which
    /// case possibly none.
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

/// Appends the reply frame for `result` to `buf`; returns its wire size.
fn encode_result(buf: &mut Vec<u8>, seq: u64, tenant: TenantId, result: ServiceResult) -> usize {
    match result {
        Ok(reply) => write_frame(buf, seq, tenant, FrameKind::ReplyOk, &encode_reply(&reply)),
        Err(err) => write_frame(buf, seq, tenant, FrameKind::ReplyErr, &encode_error(&err)),
    }
}

/// The reader thread's end of a connection's reply hand-over.
pub struct ReplyLane {
    buf: Vec<u8>,
    tx: Sender<OutMsg>,
    unflushed: Arc<AtomicUsize>,
    counters: Arc<NetCounters>,
}

/// The sequencer thread's end of a connection's reply hand-over.
pub struct Sequencer<W: Write> {
    w: BufWriter<W>,
    rx: Receiver<OutMsg>,
    unflushed: Arc<AtomicUsize>,
    counters: Arc<NetCounters>,
}

/// The two ends of one connection's reply hand-over. `sequenced` is the
/// sequencer thread's handle onto the socket; the reader passes its own to
/// [`ReplyLane::resolved`].
pub fn reply_lane<W: Write>(sequenced: W, counters: Arc<NetCounters>) -> (ReplyLane, Sequencer<W>) {
    let (tx, rx) = unbounded();
    let unflushed = Arc::new(AtomicUsize::new(0));
    let lane = ReplyLane {
        buf: Vec::with_capacity(4 * 1024),
        tx,
        unflushed: Arc::clone(&unflushed),
        counters: Arc::clone(&counters),
    };
    let sequencer = Sequencer {
        w: BufWriter::with_capacity(64 * 1024, sequenced),
        rx,
        unflushed,
        counters,
    };
    (lane, sequencer)
}

impl ReplyLane {
    /// Answers a request the reader resolved itself (every read, and
    /// requests refused before admission), inline through `direct` — the
    /// reader's handle onto the socket — or by queueing it.
    /// `more_buffered`: request bytes already read off the socket wait
    /// behind this one. An error is a failed inline write — the connection
    /// is gone.
    pub fn resolved(
        &mut self,
        direct: &mut impl TryWrite,
        seq: u64,
        tenant: TenantId,
        result: ServiceResult,
        more_buffered: bool,
    ) -> io::Result<()> {
        // Acquire pairs with the sequencer's Release subtraction, made
        // after its flush: at zero, every queued byte is on the socket.
        if !more_buffered && self.unflushed.load(Ordering::Acquire) == 0 {
            self.buf.clear();
            let n = encode_result(&mut self.buf, seq, tenant, result);
            // Counted before the write, as the sequencer counts before its
            // flush: whoever holds the reply sees it in the counters.
            self.counters.frame_out(n as u64);
            self.counters.reply_inline();
            let taken = direct.try_write(&self.buf)?;
            if taken < n {
                // The socket is full: the peer is not reading. The rest
                // waits for it on the sequencer thread, and every later
                // reply queues behind it.
                let frame = mem::take(&mut self.buf);
                self.queue(OutMsg::Tail { frame, from: taken });
            }
            return Ok(());
        }
        self.queue(OutMsg::Ready {
            seq,
            tenant,
            result: Box::new(result),
        });
        Ok(())
    }

    /// Queues a request dispatched to the actor; the sequencer writes
    /// whatever `rx` resolves, in this request's turn.
    pub fn dispatched(&mut self, seq: u64, tenant: TenantId, rx: Receiver<ServiceResult>) {
        self.queue(OutMsg::Reply { seq, tenant, rx });
    }

    /// Queues the `ProtocolError` frame that ends the connection, behind
    /// every reply still owed.
    pub fn fatal(&mut self, seq: u64, tenant: TenantId, msg: String) {
        self.queue(OutMsg::Fatal { seq, tenant, msg });
    }

    fn queue(&mut self, msg: OutMsg) {
        // Counted before it can be received, so the sequencer's
        // subtraction never runs ahead of it.
        self.unflushed.fetch_add(1, Ordering::SeqCst);
        // A send fails only once the sequencer is gone — the socket broke
        // and is shut, which this reader's next read observes.
        let _ = self.tx.send(msg);
    }
}

impl<W: Write> Sequencer<W> {
    /// Writes queued replies in order, flushing whenever the queue goes
    /// momentarily empty. Returns `true` once the reader has hung up and
    /// everything it queued is flushed; `false` when the connection broke
    /// (a write failed, or a `ProtocolError` frame was the last word).
    pub fn run(&mut self) -> bool {
        let mut buf = Vec::with_capacity(4 * 1024);
        loop {
            let Ok(first) = self.rx.recv() else {
                return true;
            };
            let mut next = Some(first);
            let mut written = 0;
            while let Some(msg) = next {
                let fatal = matches!(msg, OutMsg::Fatal { .. });
                if self.write_msg(&mut buf, msg).is_err() {
                    return false;
                }
                if fatal {
                    let _ = self.w.flush();
                    return false;
                }
                written += 1;
                next = self.rx.try_recv().ok();
            }
            if self.w.flush().is_err() {
                return false;
            }
            // Only now are these replies on the socket. Release pairs with
            // the reader's Acquire load.
            self.unflushed.fetch_sub(written, Ordering::Release);
        }
    }

    /// The sequenced handle onto the socket.
    pub fn stream(&self) -> &W {
        self.w.get_ref()
    }

    /// Drops whatever the reader still queues, until it hangs up.
    pub fn discard_queued(&self) {
        while self.rx.recv().is_ok() {}
    }

    /// Encodes and buffers one queued message. For `Reply`, blocks until
    /// the service resolves it.
    fn write_msg(&mut self, buf: &mut Vec<u8>, msg: OutMsg) -> io::Result<()> {
        buf.clear();
        let n = match msg {
            OutMsg::Tail { frame, from } => return self.w.write_all(&frame[from..]),
            OutMsg::Reply { seq, tenant, rx } => {
                let result = rx.recv().unwrap_or(Err(ServiceError::Unavailable));
                encode_result(buf, seq, tenant, result)
            }
            OutMsg::Ready {
                seq,
                tenant,
                result,
            } => encode_result(buf, seq, tenant, *result),
            OutMsg::Fatal { seq, tenant, msg } => {
                write_frame(buf, seq, tenant, FrameKind::ProtocolError, msg.as_bytes())
            }
        };
        self.w.write_all(buf)?;
        self.counters.frame_out(n as u64);
        Ok(())
    }
}

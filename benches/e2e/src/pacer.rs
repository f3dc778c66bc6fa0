//! Open-loop pacing: operations are due on a fixed schedule whether or not
//! the system kept up, and each is timed from when it was *due*, so a stall
//! charges every operation it delayed rather than only the one it hit.

use std::time::{Duration, Instant};

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// Zero-based position on the schedule.
    pub index: u64,
    /// Offset of the due time from the schedule's start.
    pub due: Duration,
}

/// A fixed-period schedule: tick `i` is due at `offset + i × period`. Ticks
/// are never skipped or re-based — a generator that falls behind fires the
/// overdue ticks back to back and reports how late each one left.
#[derive(Debug, Clone)]
pub struct Schedule {
    period: Duration,
    offset: Duration,
    next: u64,
}

impl Schedule {
    pub fn new(period: Duration, offset: Duration) -> Self {
        assert!(!period.is_zero(), "a schedule needs a positive period");
        Schedule {
            period,
            offset,
            next: 0,
        }
    }

    /// The next tick, without consuming it.
    pub fn peek(&self) -> Tick {
        Tick {
            index: self.next,
            due: self.offset + self.period * u32::try_from(self.next).expect("tick index fits u32"),
        }
    }

    /// Consumes and returns the next tick.
    pub fn pop(&mut self) -> Tick {
        let tick = self.peek();
        self.next += 1;
        tick
    }
}

/// How long after its due time an operation actually left, given the
/// current offset from the schedule's start; zero when it left on time.
pub fn lateness(tick: Tick, now: Duration) -> Duration {
    now.saturating_sub(tick.due)
}

/// Sleeps until `tick` is due (returns at once when it is overdue) and
/// reports how late the generator woke.
pub fn wait_until_due(start: Instant, tick: Tick) -> Duration {
    let now = start.elapsed();
    if let Some(ahead) = tick.due.checked_sub(now) {
        std::thread::sleep(ahead);
    }
    lateness(tick, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn ticks_are_due_on_the_grid_whatever_the_generator_did() {
        let mut s = Schedule::new(200 * MS, 50 * MS);
        assert_eq!(s.peek().due, 50 * MS);
        assert_eq!(s.pop().index, 0);
        assert_eq!(s.pop().due, 250 * MS);
        // A 700 ms stall later, the next tick is still the one due at
        // 450 ms: the schedule does not slide to hide the stall.
        let t = s.pop();
        assert_eq!((t.index, t.due), (2, 450 * MS));
        assert_eq!(lateness(t, 950 * MS), 500 * MS);
    }

    #[test]
    fn an_early_generator_is_not_late() {
        let t = Schedule::new(10 * MS, Duration::ZERO).pop();
        assert_eq!(lateness(t, Duration::ZERO), Duration::ZERO);
        let mut s = Schedule::new(10 * MS, Duration::ZERO);
        s.pop();
        assert_eq!(lateness(s.pop(), 4 * MS), Duration::ZERO);
    }

    #[test]
    fn latency_from_due_time_counts_the_queueing_a_stall_causes() {
        // Ticks every 100 ms; the system stalls until t = 350 ms, then
        // answers each request in 10 ms. Timed from send, every request
        // looks like 10 ms; timed from due, the backlog shows.
        let mut s = Schedule::new(100 * MS, Duration::ZERO);
        let mut now = 350 * MS;
        let mut from_due = Vec::new();
        for _ in 0..4 {
            let t = s.pop();
            now = now.max(t.due) + 10 * MS;
            from_due.push(now - t.due);
        }
        assert_eq!(from_due, [360 * MS, 270 * MS, 180 * MS, 90 * MS]);
    }

    #[test]
    fn waiting_for_an_overdue_tick_returns_its_lateness() {
        let start = Instant::now() - 50 * MS;
        let late = wait_until_due(
            start,
            Tick {
                index: 0,
                due: 10 * MS,
            },
        );
        assert!(late >= 40 * MS, "{late:?}");
    }
}

//! Open-loop pacing: event `i` of the stream is due `i / rate` seconds after
//! the run starts, whatever the router did with the events before it.
//!
//! The generator sends everything that is due, then sleeps until the next
//! event falls due ([`Pacer::due_at`]). How late each send started against
//! its due time ([`lateness`]) is the stall the router imposes on its peers:
//! a blocked ingest call makes every later event late until the generator
//! catches up. A lifecycle or convergence marker stands for a quiet stretch
//! of the trace (a convergence gap is at least ten minutes of trace time),
//! so after one the schedule resumes from the moment the marker's call
//! returned ([`Pacer::resume_at`]) instead of charging the call to the
//! events behind it.

/// The fixed-rate schedule of one open-loop pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pacer {
    interval_ns: f64,
    /// Shift of the schedule from `i / rate`, accumulated by `resume_at`.
    shift_ns: u64,
}

impl Pacer {
    /// A schedule of events at `rate` events per second.
    ///
    /// # Panics
    ///
    /// If `rate` is not a positive finite number.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Pacer {
            interval_ns: 1e9 / rate,
            shift_ns: 0,
        }
    }

    /// Due time of event `i`, ns after the start.
    pub fn due_at(&self, i: usize) -> u64 {
        (i as f64 * self.interval_ns) as u64 + self.shift_ns
    }

    /// Shifts the rest of the schedule so that event `next` is due no
    /// earlier than `now_ns`; later events keep the rate.
    pub fn resume_at(&mut self, next: usize, now_ns: u64) {
        self.shift_ns += now_ns.saturating_sub(self.due_at(next));
    }
}

/// How late a send that started at `sent_ns` ran against its due time.
pub fn lateness(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn schedule_spaces_events_evenly() {
        let p = Pacer::new(1_000.0);
        assert_eq!(p.due_at(0), 0);
        assert_eq!(p.due_at(3), 3 * MS);
    }

    #[test]
    fn a_stall_makes_later_sends_late_until_the_generator_catches_up() {
        // 1 event per ms. The send of event 2 blocks for 3.5 ms; the
        // generator then sends the backlog back to back (0.1 ms each).
        let p = Pacer::new(1_000.0);
        let sent = [
            0,
            MS,
            2 * MS,
            55 * MS / 10,
            56 * MS / 10,
            57 * MS / 10,
            6 * MS,
            7 * MS,
        ];
        let late: Vec<u64> = sent
            .iter()
            .enumerate()
            .map(|(i, &s)| lateness(p.due_at(i), s))
            .collect();
        assert_eq!(
            late,
            vec![0, 0, 0, 25 * MS / 10, 16 * MS / 10, 7 * MS / 10, 0, 0]
        );
        // Early sends (clocks can disagree) count as on time.
        assert_eq!(lateness(5, 3), 0);
    }

    #[test]
    fn a_marker_resumes_the_schedule_instead_of_making_events_late() {
        // A resync between events 3 and 4 returns at 7.5 ms: event 4 is
        // due then, not at 4 ms, and the rate continues from there.
        let mut p = Pacer::new(1_000.0);
        p.resume_at(4, 75 * MS / 10);
        assert_eq!(p.due_at(4), 75 * MS / 10);
        assert_eq!(p.due_at(5), 85 * MS / 10);
        // A marker that returns before the next event is due moves nothing.
        p.resume_at(6, 90 * MS / 10);
        assert_eq!(p.due_at(6), 95 * MS / 10);
    }
}

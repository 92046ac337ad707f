//! Busy-until-time accounting for single-server resources.
//!
//! The SSD simulator models each independently operating flash element (die)
//! and each shared gang bus as a single server that processes one operation
//! at a time.  The HDD simulator models the disk arm the same way.  A
//! [`Server`] tracks when the resource next becomes free and how long it has
//! been busy; callers ask it to serve an operation arriving at some time
//! with some service demand and get back the start and completion times.

use crate::time::{SimDuration, SimTime};

/// A single-server FIFO resource with busy-until-time semantics.
#[derive(Clone, Debug, Default)]
pub struct Server {
    next_free: SimTime,
    busy_total: SimDuration,
}

/// The outcome of scheduling one operation on a [`Server`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Service {
    /// When the operation started executing (>= arrival).
    pub start: SimTime,
    /// When the operation completed.
    pub completion: SimTime,
}

impl Server {
    /// Creates an idle server, free from time zero.
    pub fn new() -> Self {
        Server {
            next_free: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
        }
    }

    /// The earliest time the server can start a new operation.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// How long a request arriving at `arrival` would wait before starting.
    pub fn wait_for(&self, arrival: SimTime) -> SimDuration {
        self.next_free.saturating_since(arrival)
    }

    /// Whether the server would be idle for a request arriving at `arrival`.
    pub fn is_idle_at(&self, arrival: SimTime) -> bool {
        self.next_free <= arrival
    }

    /// Serves an operation arriving at `arrival` that needs `service` time.
    ///
    /// The operation starts at `max(arrival, next_free)` and occupies the
    /// server until `start + service`.
    pub fn serve(&mut self, arrival: SimTime, service: SimDuration) -> Service {
        self.serve_run(arrival, service, 1).0
    }

    /// Serves `n` (at least one) operations that all arrive at `arrival`
    /// and need `service` time each, back to back: exactly what `n` calls
    /// of [`Server::serve`] do, in O(1).  Returns the first operation's
    /// [`Service`] and the completion of the last; operation `k` occupies
    /// `[start + k * service, start + (k + 1) * service)`.
    pub fn serve_run(
        &mut self,
        arrival: SimTime,
        service: SimDuration,
        n: u64,
    ) -> (Service, SimTime) {
        debug_assert!(n > 0, "an empty run");
        let start = arrival.max(self.next_free);
        let last_completion = start + service * n;
        self.next_free = last_completion;
        self.busy_total = self.busy_total.saturating_add(service.saturating_mul(n));
        let first = Service {
            start,
            completion: start + service,
        };
        (first, last_completion)
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Utilisation over a horizon `[0, end]`; clamped to `[0, 1]`.
    pub fn utilisation(&self, end: SimTime) -> f64 {
        let horizon = end.as_nanos();
        if horizon == 0 {
            return 0.0;
        }
        (self.busy_total.as_nanos() as f64 / horizon as f64).clamp(0.0, 1.0)
    }

    /// Resets the server to the idle state at time zero.
    pub fn reset(&mut self) {
        *self = Server::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = Server::new();
        let svc = s.serve(SimTime::from_micros(5), SimDuration::from_micros(10));
        assert_eq!(svc.start, SimTime::from_micros(5));
        assert_eq!(svc.completion, SimTime::from_micros(15));
        assert_eq!(s.next_free(), SimTime::from_micros(15));
    }

    #[test]
    fn busy_server_queues() {
        let mut s = Server::new();
        s.serve(SimTime::ZERO, SimDuration::from_micros(100));
        let svc = s.serve(SimTime::from_micros(10), SimDuration::from_micros(20));
        assert_eq!(svc.start, SimTime::from_micros(100));
        assert_eq!(svc.completion, SimTime::from_micros(120));
    }

    #[test]
    fn wait_for_and_idle() {
        let mut s = Server::new();
        assert!(s.is_idle_at(SimTime::ZERO));
        s.serve(SimTime::ZERO, SimDuration::from_micros(50));
        assert!(!s.is_idle_at(SimTime::from_micros(10)));
        assert!(s.is_idle_at(SimTime::from_micros(50)));
        assert_eq!(
            s.wait_for(SimTime::from_micros(20)),
            SimDuration::from_micros(30)
        );
        assert_eq!(s.wait_for(SimTime::from_micros(60)), SimDuration::ZERO);
    }

    #[test]
    fn busy_total_and_utilisation() {
        let mut s = Server::new();
        s.serve(SimTime::ZERO, SimDuration::from_micros(25));
        s.serve(SimTime::ZERO, SimDuration::from_micros(25));
        assert_eq!(s.busy_total(), SimDuration::from_micros(50));
        assert!((s.utilisation(SimTime::from_micros(100)) - 0.5).abs() < 1e-9);
        assert_eq!(s.utilisation(SimTime::ZERO), 0.0);
    }

    #[test]
    fn serve_run_is_n_serves() {
        // Idle and backlogged, zero and non-zero service.
        for (backlog, service, n) in [(0, 7, 5), (100, 7, 5), (100, 0, 3), (0, 0, 1), (40, 9, 1)] {
            let mut run = Server::new();
            run.serve(SimTime::ZERO, SimDuration::from_micros(backlog));
            let mut single = run.clone();
            let arrival = SimTime::from_micros(50);
            let service = SimDuration::from_micros(service);
            let (first, last) = run.serve_run(arrival, service, n);
            let each: Vec<Service> = (0..n).map(|_| single.serve(arrival, service)).collect();
            assert_eq!(first, each[0]);
            assert_eq!(last, each.last().unwrap().completion);
            assert_eq!(run.next_free(), single.next_free());
            assert_eq!(run.busy_total(), single.busy_total());
        }
    }

    #[test]
    fn reset_restores_idle_state() {
        let mut s = Server::new();
        s.serve(SimTime::ZERO, SimDuration::from_millis(1));
        s.reset();
        assert_eq!(s.next_free(), SimTime::ZERO);
        assert_eq!(s.busy_total(), SimDuration::ZERO);
    }
}

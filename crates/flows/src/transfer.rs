//! The data-movement service: a Globus transfer stand-in.
//!
//! Transfers between named endpoints are accounted in *virtual* seconds
//! from a per-endpoint-pair latency/bandwidth model (the repo cannot move
//! bytes over a real WAN; see DESIGN.md). The service keeps a transfer log
//! so workflows can attribute end-to-end time to data movement — the role
//! Globus transfer plays in the paper's Fig 15 accounting.

use parking_lot::RwLock;
use std::collections::HashMap;

/// A named data endpoint (beamline storage, compute cluster, model zoo…).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Endpoint(pub String);

impl Endpoint {
    /// Creates an endpoint from a name.
    pub fn new(name: &str) -> Self {
        Endpoint(name.to_string())
    }
}

/// Link parameters for an endpoint pair.
#[derive(Clone, Copy, Debug)]
struct Route {
    latency_s: f64,
    gbps: f64,
}

/// A completed transfer.
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// Source endpoint name.
    pub src: String,
    /// Destination endpoint name.
    pub dst: String,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Modeled duration in seconds.
    pub virtual_secs: f64,
}

/// The transfer service: routes + a log.
pub struct TransferService {
    routes: RwLock<HashMap<(Endpoint, Endpoint), Route>>,
    default_route: Route,
    log: RwLock<Vec<TransferRecord>>,
}

impl Default for TransferService {
    fn default() -> Self {
        Self::new()
    }
}

impl TransferService {
    /// A service whose default route models a well-provisioned WAN link
    /// (50 ms setup, 10 Gb/s sustained — typical inter-facility Globus
    /// performance).
    pub fn new() -> Self {
        TransferService {
            routes: RwLock::new(HashMap::new()),
            default_route: Route {
                latency_s: 0.05,
                gbps: 10.0,
            },
            log: RwLock::new(Vec::new()),
        }
    }

    /// Configures the link between two endpoints (both directions).
    pub fn set_route(&self, a: &Endpoint, b: &Endpoint, latency_s: f64, gbps: f64) {
        assert!(gbps > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        let route = Route { latency_s, gbps };
        let mut routes = self.routes.write();
        routes.insert((a.clone(), b.clone()), route);
        routes.insert((b.clone(), a.clone()), route);
    }

    /// Executes a transfer, returning its record (also appended to the log).
    pub fn transfer(&self, src: &Endpoint, dst: &Endpoint, bytes: usize) -> TransferRecord {
        let route = self
            .routes
            .read()
            .get(&(src.clone(), dst.clone()))
            .copied()
            .unwrap_or(self.default_route);
        let virtual_secs = if src == dst {
            0.0 // local: no movement
        } else {
            route.latency_s + bytes as f64 * 8.0 / (route.gbps * 1e9)
        };
        let record = TransferRecord {
            src: src.0.clone(),
            dst: dst.0.clone(),
            bytes,
            virtual_secs,
        };
        self.log.write().push(record.clone());
        record
    }

    /// Snapshot of the transfer log.
    pub fn log(&self) -> Vec<TransferRecord> {
        self.log.read().clone()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> usize {
        self.log.read().iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_follows_route_model() {
        let svc = TransferService::new();
        let a = Endpoint::new("aps");
        let b = Endpoint::new("alcf");
        svc.set_route(&a, &b, 0.1, 1.0); // 1 Gb/s
        let rec = svc.transfer(&a, &b, 125_000_000); // 1 Gb payload
        assert!(
            (rec.virtual_secs - 1.1).abs() < 1e-9,
            "{}",
            rec.virtual_secs
        );
        // Symmetric route.
        let back = svc.transfer(&b, &a, 125_000_000);
        assert!((back.virtual_secs - 1.1).abs() < 1e-9);
    }

    #[test]
    fn local_transfers_are_free() {
        let svc = TransferService::new();
        let a = Endpoint::new("local");
        assert_eq!(svc.transfer(&a, &a, 1 << 30).virtual_secs, 0.0);
    }

    #[test]
    fn unknown_routes_use_the_default() {
        let svc = TransferService::new();
        let rec = svc.transfer(&Endpoint::new("x"), &Endpoint::new("y"), 0);
        assert!((rec.virtual_secs - 0.05).abs() < 1e-12);
    }

    #[test]
    fn log_accumulates_totals() {
        let svc = TransferService::new();
        let a = Endpoint::new("a");
        let b = Endpoint::new("b");
        svc.transfer(&a, &b, 100);
        svc.transfer(&a, &b, 200);
        assert_eq!(svc.log().len(), 2);
        assert_eq!(svc.total_bytes(), 300);
        assert!(svc.log().iter().all(|r| r.virtual_secs > 0.0));
    }
}

//! The tenant plane (DESIGN.md §14): N isolated experiment deployments
//! behind one service process, sharing one training executor and one wire
//! listener.
//!
//! The fairDMS paper deploys the service per-beamline, but one facility
//! runs many experiments at once — tomography, cookiebox, Bragg peak
//! scans — and giving each its own process wastes the training hardware
//! the service exists to arbitrate. [`MultiDms`] hosts them as *tenants*:
//!
//! * **Isolation** — each tenant owns a full deployment: its own mutation
//!   actor, [`crate::swap::SnapshotCell`] chain, embed cache, read
//!   index, model zoo and [`crate::metrics::Metrics`] registry. A
//!   publication, cache fill, or retrain in one tenant is invisible to
//!   every other; replies are bit-identical to the same tenant running
//!   solo (proven by `tests/tenant_differential.rs`).
//! * **Fair shared training** — all tenants submit background training
//!   jobs (`UpdateModel` fine-tunes, certainty retrains) to one
//!   [`JobPool`] that serves them by deficit-weighted round-robin, so a
//!   tenant flooding retrains cannot starve another's single update
//!   (bounded interleave; see `crates/flows/tests/fairness.rs`).
//!   Supersession remains per-tenant: tenant A's newer job can only ever
//!   cancel tenant A's older one, because cancel tokens never leave the
//!   deployment that minted them.
//! * **Admission quotas** — each tenant's training queue is bounded
//!   (`DmsServerConfig::training_queue_capacity`); a flood past the cap is
//!   answered [`crate::api::ServiceError::Busy`] instead of growing the
//!   queue, and each tenant keeps its own actor queue depth
//!   (`DmsServerConfig::queue_capacity`).
//! * **One wire plane** — [`MultiDms::serve_tcp`] publishes every tenant
//!   through a single listener; frames carry a tenant id and route to
//!   that tenant's client. Unknown tenants are answered `Invalid` on a
//!   live socket.

use crate::api::{Request, ServiceError, ServiceResult, TenantId};
use crate::net::{NetServerConfig, NetServerHandle, TenantRouter};
use crate::server::{DmsClient, DmsServer, DmsServerConfig, FallbackLabeler, ServerHandle};
use fairdms_core::workflow::RapidTrainer;
use fairdms_flows::jobs::{JobPool, TenantQueueConfig};
use std::io;
use std::sync::Arc;

/// Per-tenant deployment description for [`MultiDmsBuilder::tenant`].
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// The tenant's wire identity. Must be unique within one [`MultiDms`].
    pub id: TenantId,
    /// Fair-share weight in the shared training pool's deficit-weighted
    /// round-robin: a weight-3 tenant gets up to 3 jobs per sweep where a
    /// weight-1 tenant gets 1, when both are backlogged.
    pub weight: u32,
    /// The tenant's own deployment knobs (actor queue depth, retrain
    /// policy, training-queue admission cap…). `training_pool_size` is
    /// ignored — the pool is shared and sized by [`MultiDms::builder`].
    pub config: DmsServerConfig,
}

impl TenantSpec {
    /// A weight-1 tenant with default deployment knobs.
    pub fn new(id: TenantId) -> Self {
        TenantSpec {
            id,
            weight: 1,
            config: DmsServerConfig::default(),
        }
    }
}

/// Accumulates tenant deployments for [`MultiDms`]; see [`MultiDms::builder`].
pub struct MultiDmsBuilder {
    training_pool_size: usize,
    tenants: Vec<(TenantSpec, RapidTrainer, FallbackLabeler)>,
}

impl MultiDmsBuilder {
    /// Registers one tenant. Panics on a duplicate id at
    /// [`MultiDmsBuilder::spawn`] time.
    pub fn tenant(
        mut self,
        spec: TenantSpec,
        trainer: RapidTrainer,
        labeler: FallbackLabeler,
    ) -> Self {
        self.tenants.push((spec, trainer, labeler));
        self
    }

    /// Spawns every tenant's deployment around one shared training pool.
    /// Panics if no tenants were registered or two share an id.
    pub fn spawn(self) -> MultiDms {
        assert!(
            !self.tenants.is_empty(),
            "MultiDms needs at least one tenant"
        );
        let pool = Arc::new(JobPool::new(self.training_pool_size, "fairdms-train"));
        let mut tenants: Vec<(TenantId, DmsClient, ServerHandle)> =
            Vec::with_capacity(self.tenants.len());
        for (spec, trainer, labeler) in self.tenants {
            assert!(
                tenants.iter().all(|(id, _, _)| *id != spec.id),
                "duplicate tenant id {}",
                spec.id
            );
            pool.configure_tenant(
                spec.id,
                TenantQueueConfig {
                    weight: spec.weight,
                    capacity: spec.config.training_queue_capacity,
                },
            );
            let (client, handle) =
                DmsServer::spawn_shared(trainer, labeler, spec.config, Arc::clone(&pool), spec.id);
            tenants.push((spec.id, client, handle));
        }
        tenants.sort_by_key(|(id, _, _)| *id);
        MultiDms { tenants, pool }
    }
}

/// N isolated fairDMS deployments sharing one training pool and (via
/// [`MultiDms::serve_tcp`]) one wire listener. See the module docs for the
/// isolation and fairness contract.
pub struct MultiDms {
    tenants: Vec<(TenantId, DmsClient, ServerHandle)>,
    /// Shared training executor.
    pool: Arc<JobPool>,
}

impl MultiDms {
    /// Starts a builder whose tenants share a `training_pool_size`-worker
    /// training executor (at least one worker).
    pub fn builder(training_pool_size: usize) -> MultiDmsBuilder {
        MultiDmsBuilder {
            training_pool_size,
            tenants: Vec::new(),
        }
    }

    /// The in-process client for `tenant`, if registered.
    pub fn client(&self, tenant: TenantId) -> Option<&DmsClient> {
        self.tenants
            .binary_search_by_key(&tenant, |(id, _, _)| *id)
            .ok()
            .map(|i| &self.tenants[i].1)
    }

    /// Routes one request to its tenant's deployment. Unknown tenants
    /// answer [`ServiceError::Invalid`] — same contract as the wire plane.
    pub fn call(&self, tenant: TenantId, req: Request) -> ServiceResult {
        match self.client(tenant) {
            Some(client) => client.call(req),
            None => Err(ServiceError::Invalid(format!("unknown tenant {tenant}"))),
        }
    }

    /// All registered tenant ids, ascending.
    pub fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.tenants.iter().map(|(id, _, _)| *id)
    }

    /// Jobs queued (not yet running) in `tenant`'s training lane; `0` for
    /// unknown tenants.
    pub fn training_jobs_queued(&self, tenant: TenantId) -> usize {
        self.pool.queued(tenant)
    }

    /// A wire router over every tenant, for
    /// [`crate::net::NetServer::serve_tcp_router`] /
    /// [`crate::net::NetServer::serve_uds_router`].
    pub fn router(&self) -> TenantRouter {
        TenantRouter::new(
            self.tenants
                .iter()
                .map(|(id, client, _)| (*id, client.clone()))
                .collect(),
        )
    }

    /// Serves every tenant over one TCP listener (frames route by their
    /// tenant header). Convenience over [`MultiDms::router`].
    pub fn serve_tcp(
        &self,
        addr: impl std::net::ToSocketAddrs,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        crate::net::NetServer::serve_tcp_router(self.router(), addr, cfg)
    }

    /// Shuts every tenant down (draining each deployment's queues), then
    /// joins the shared training pool's workers. Tenant order: ascending
    /// id. In-flight training jobs are cancelled at their next epoch
    /// boundary by each deployment's executor shutdown.
    pub fn shutdown(self) {
        for (_, client, handle) in self.tenants {
            drop(client);
            handle.shutdown();
        }
        // Last Arc ref: dropping it joins the pool's worker threads.
        drop(self.pool);
    }
}

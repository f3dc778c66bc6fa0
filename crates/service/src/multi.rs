//! The tenant plane (DESIGN.md §14): N isolated experiment deployments
//! behind one service process, sharing one training executor and one wire
//! listener.
//!
//! [`MultiDms`] is the only way to stand up the service: a single
//! experiment is a one-tenant `MultiDms`, built with
//! [`MultiDms::builder`] and served with [`MultiDms::serve_tcp`] or
//! [`MultiDms::serve_uds`].
//!
//! The fairDMS paper deploys the service per-beamline, but one facility
//! runs many experiments at once — tomography, cookiebox, Bragg peak
//! scans — and giving each its own process wastes the training hardware
//! the service exists to arbitrate. [`MultiDms`] hosts them as *tenants*:
//!
//! * **Isolation** — each tenant owns a full deployment: its own mutation
//!   actor, published [`crate::server::ServiceView`], embed cache, read
//!   index, model zoo and [`crate::metrics::Metrics`] registry. A
//!   publication, cache fill, or retrain in one tenant is invisible to
//!   every other; replies are bit-identical to the same tenant running
//!   solo (proven by `tests/tenant_differential.rs`).
//! * **Fair shared training** — all tenants submit background training
//!   jobs (`UpdateModel` fine-tunes, certainty retrains) to one
//!   [`JobPool`] that serves them by round-robin, so a tenant flooding
//!   retrains cannot starve another's single update (at most `n − 1`
//!   other jobs in between; see `crates/flows/tests/fairness.rs`).
//!   Supersession remains per-tenant: tenant A's newer job can only ever
//!   cancel tenant A's older one, because cancel tokens never leave the
//!   deployment that minted them.
//! * **Admission quotas** — each tenant's training queue is bounded
//!   (`DmsServerConfig::training_queue_capacity`); a flood past the cap is
//!   answered [`crate::api::ServiceError::Busy`] instead of growing the
//!   queue, and each tenant keeps its own actor queue depth
//!   (`DmsServerConfig::queue_capacity`).
//! * **One wire plane** — [`MultiDms::serve_tcp`] (or
//!   [`MultiDms::serve_uds`]) publishes every tenant through a single
//!   listener; frames carry a tenant id and route to that tenant's
//!   client. Unknown tenants are answered `Invalid` on a live socket.

use crate::api::{Request, ServiceError, ServiceResult, TenantId};
use crate::net::server::{self as net_server, TenantRouter};
use crate::net::{NetServerConfig, NetServerHandle};
use crate::server::{spawn_tenant, DmsClient, DmsServerConfig, FallbackLabeler, ServerHandle};
use fairdms_core::workflow::RapidTrainer;
use fairdms_flows::jobs::JobPool;
use std::io;
use std::sync::Arc;

/// Per-tenant deployment description for [`MultiDmsBuilder::tenant`].
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// The tenant's wire identity. Must be unique within one [`MultiDms`].
    pub id: TenantId,
    /// The tenant's own deployment knobs (actor queue depth, retrain
    /// policy, training-queue admission cap…). The service does not read
    /// its `training_pool_size`: the pool is shared and sized by the
    /// argument of [`MultiDms::builder`].
    pub config: DmsServerConfig,
}

impl TenantSpec {
    /// A tenant with default deployment knobs.
    pub fn new(id: TenantId) -> Self {
        TenantSpec {
            id,
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
    /// Panics, before any actor starts, if no tenants were registered or
    /// two share an id.
    pub fn spawn(mut self) -> MultiDms {
        assert!(
            !self.tenants.is_empty(),
            "MultiDms needs at least one tenant"
        );
        self.tenants.sort_by_key(|(spec, _, _)| spec.id);
        if let Some(w) = self.tenants.windows(2).find(|w| w[0].0.id == w[1].0.id) {
            panic!("duplicate tenant id {}", w[0].0.id);
        }
        let pool = Arc::new(JobPool::new(self.training_pool_size, "fairdms-train"));
        let tenants = self
            .tenants
            .into_iter()
            .map(|(spec, trainer, labeler)| {
                pool.set_capacity(spec.id, spec.config.training_queue_capacity);
                let (client, handle) =
                    spawn_tenant(trainer, labeler, spec.config, Arc::clone(&pool), spec.id);
                (spec.id, client, handle)
            })
            .collect();
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

    fn router(&self) -> TenantRouter {
        TenantRouter::new(
            self.tenants
                .iter()
                .map(|(id, client, _)| (*id, client.clone()))
                .collect(),
        )
    }

    /// Serves every tenant over one TCP listener: frames route by their
    /// tenant header, unknown tenants are answered `Invalid`. Binds `addr`
    /// (port 0 for an ephemeral port, then
    /// [`NetServerHandle::local_addr`]) and returns once the listener is
    /// live.
    pub fn serve_tcp(
        &self,
        addr: impl std::net::ToSocketAddrs,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        net_server::serve_tcp(self.router(), addr, cfg)
    }

    /// Serves every tenant over one Unix-domain socket at `path` (removed
    /// on [`NetServerHandle::shutdown`]); binding fails if the path
    /// exists.
    #[cfg(unix)]
    pub fn serve_uds(
        &self,
        path: impl Into<std::path::PathBuf>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServerHandle> {
        net_server::serve_uds(self.router(), path.into(), cfg)
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

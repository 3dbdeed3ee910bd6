//! `implant-cluster`: sharded multi-replica serving over
//! `implant-server`.
//!
//! One implant server is a single process with a bounded queue; this
//! crate is the layer that makes N of them behave like one service:
//!
//! * [`member`] — the [`ReplicaSet`]: spawns (or adopts) N replicas and
//!   probes each one's `health` endpoint on an interval, driving an
//!   up/down state machine with hysteresis (`cluster.probe` /
//!   `cluster.up` / `cluster.down` stages); a killed replica rejoins
//!   through [`ReplicaSet::rejoin_with_catchup`], pre-warming its
//!   HRW-owned keys from the shared [`store`](::store) before it takes
//!   traffic;
//! * [`rendezvous`] — highest-random-weight hashing of each request's
//!   routing key ([`server::proto::RequestBody::route_point`]): the
//!   top-ranked replica is the placement, the rest of the ranking is
//!   the failover order, and membership changes remap only the dead
//!   replica's keys — warm result caches stay warm;
//! * [`client`] — the resilient [`ClusterClient`]: per-request deadline
//!   budget, bounded retries with decorrelated-jitter backoff seeded
//!   from the runtime's xoshiro streams (replayable schedules),
//!   automatic reconnect, failover in rendezvous order on transport
//!   errors, `overloaded` and `shutting_down`, plus seeded hedged reads
//!   ([`HedgeConfig`]) answered from the shared artifact store when the
//!   rendezvous owner is slow;
//! * [`campaign`] — the sharded [`CohortCampaign`]: splits a
//!   [`scenario::Cohort`] of virtual patients into bounded shards,
//!   routes each through the client, and merges the reports in offset
//!   order — bit-identical to a serial run of the whole cohort;
//! * [`proxy`] — the [`ClusterProxy`] front end: the v2 wire protocol
//!   on one port, data plane fanned out through a routing client,
//!   `metrics_v2` merged over the replicas and the cluster's own
//!   stages ([`obs::merge_prometheus`]). `cluster_serve` is the binary.
//!
//! Everything is `std`-only and deterministic where determinism is
//! claimable: placement is a pure function of (membership set, request
//! identity), and backoff schedules are pure functions of (policy seed,
//! request index).
//!
//! # Example
//!
//! ```
//! use cluster::{ClusterClient, ProbeConfig, ReplicaSet, RetryPolicy};
//! use server::ServerConfig;
//! use std::time::Duration;
//!
//! let set = ReplicaSet::spawn_local(2, &ServerConfig::default(), ProbeConfig::default()).unwrap();
//! assert!(set.await_converged(Duration::from_secs(5)));
//! let mut client = ClusterClient::new(set.clone(), RetryPolicy::default());
//! let routed = client
//!     .request_routed("sweep", runtime::Json::parse(r#"{"steps": 3}"#).unwrap(), None)
//!     .unwrap();
//! assert!(routed.response.is_ok());
//! // Identical requests route to the same replica (warm-cache locality).
//! let again = client
//!     .request_routed("sweep", runtime::Json::parse(r#"{"steps": 3}"#).unwrap(), None)
//!     .unwrap();
//! assert_eq!(routed.replica, again.replica);
//! set.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod client;
pub mod member;
pub mod proxy;
pub mod rendezvous;

pub use campaign::{CampaignOutcome, CohortCampaign, LostShard};
pub use client::{
    Backoff, ClusterClient, ClusterError, ClusterStats, HedgeConfig, RetryPolicy, RoutedResponse,
};
pub use member::{HealthState, Member, MemberView, ProbeConfig, ProbeCounters, ReplicaSet};
pub use proxy::{ClusterProxy, ProxyConfig, ProxyHandle};

//! The stack under test: one in-process `OnlineServer` behind one
//! `Gateway` on an ephemeral loopback port, configured identically for every
//! workload (see [`crate::spec`]).

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use bishop_gateway::{Gateway, GatewayConfig};
use bishop_runtime::{
    BatchPolicy, CalibrationCache, OnlineConfig, OnlineServer, OnlineStats, ResultCache,
    RuntimeConfig, ServerHandle,
};

use crate::client::{bare, Connection};
use crate::spec;

/// A booted runtime + gateway pair and the caches handed to it.
pub struct Stack {
    runtime: OnlineServer,
    gateway: Gateway,
    /// The simulator engine's workload (trace-synthesis) cache.
    pub workloads: Arc<CalibrationCache>,
    /// The simulator engine's result cache.
    pub results: Arc<ResultCache>,
}

impl Stack {
    /// Boots the fixed configuration with fresh caches.
    pub fn boot() -> io::Result<Self> {
        let workloads = Arc::new(CalibrationCache::new());
        let results = Arc::new(ResultCache::new());
        let config = OnlineConfig::new(RuntimeConfig::new(
            spec::WORKERS,
            BatchPolicy::new(spec::BATCH_CAP),
        ))
        .with_batch_timeout(Some(spec::BATCH_TIMEOUT))
        .with_max_pending(spec::MAX_PENDING)
        .with_native_compute_workers(spec::NATIVE_COMPUTE_WORKERS);
        let runtime =
            OnlineServer::with_caches(config, Arc::clone(&workloads), Arc::clone(&results));
        let gateway = Gateway::start(GatewayConfig::default(), runtime.handle())?;
        Ok(Self {
            runtime,
            gateway,
            workloads,
            results,
        })
    }

    /// The gateway's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    /// A submission handle straight into the runtime (bypassing HTTP).
    pub fn handle(&self) -> ServerHandle {
        self.runtime.handle()
    }

    /// The runtime's counters.
    pub fn stats(&self) -> OnlineStats {
        self.runtime.stats()
    }

    /// `GET /metrics` as text.
    pub fn scrape(&self) -> io::Result<String> {
        let reply = Connection::open(self.addr())?.roundtrip(&bare("GET", "/metrics"))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        Ok(reply.text().to_string())
    }

    /// Stops the gateway, then the runtime.
    pub fn shutdown(self) {
        self.gateway.shutdown();
        self.runtime.shutdown();
    }
}

/// Sum and count of one `bishop_stage_seconds` histogram in a `/metrics`
/// scrape (zeros when the series has no samples yet).
pub fn stage_sum_count(metrics: &str, engine: &str, stage: &str) -> (f64, f64) {
    let labels = format!("{{engine=\"{engine}\",stage=\"{stage}\"}}");
    let read = |suffix: &str| {
        let series = format!("bishop_stage_seconds_{suffix}{labels} ");
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(series.as_str()))
            .and_then(|value| value.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (read("sum"), read("count"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_series_are_read_by_exact_label_set() {
        let text = "# TYPE bishop_stage_seconds histogram\n\
            bishop_stage_seconds_bucket{engine=\"native\",stage=\"parse\",le=\"+Inf\"} 4\n\
            bishop_stage_seconds_sum{engine=\"native\",stage=\"parse\"} 0.0025\n\
            bishop_stage_seconds_count{engine=\"native\",stage=\"parse\"} 4\n\
            bishop_stage_seconds_sum{engine=\"simulator\",stage=\"parse\"} 9\n";
        assert_eq!(stage_sum_count(text, "native", "parse"), (0.0025, 4.0));
        assert_eq!(stage_sum_count(text, "simulator", "parse"), (9.0, 0.0));
        assert_eq!(stage_sum_count(text, "native", "queue_wait"), (0.0, 0.0));
    }
}

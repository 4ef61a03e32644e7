//! Shared engine plumbing.

use crate::RunOutput;
use graphbench_algos::WorkloadResult;
use graphbench_sim::{Cluster, RunMetrics, RunStatus, SimError};

/// Build a [`RunOutput`] from a finished (or failed) cluster run.
pub(crate) fn output_from(
    cluster: Cluster,
    outcome: Result<WorkloadResult, SimError>,
    mut notes: Vec<String>,
) -> RunOutput {
    let (status, result) = match outcome {
        Ok(r) => (RunStatus::Ok, Some(r)),
        Err(e) => (RunStatus::from_error(&e), None),
    };
    // Scheduled fault events the run never reached (e.g. a crash timed
    // after the last barrier) are surfaced, not silently dropped.
    for f in cluster.unreached_faults() {
        notes.push(format!("fault event unreached: {f}"));
    }
    let metrics = RunMetrics {
        status,
        phases: cluster.phase_times(),
        iterations: cluster.supersteps(),
        network_bytes: cluster.total_net_bytes(),
        messages: cluster.total_messages(),
        mem_peaks: cluster.mem_peaks(),
        cpu: cluster.cpu_breakdown(),
        // Filled by the runner, which holds the dataset's CSR.
        dataset_mem_bytes: 0,
    };
    let runtime = cluster.elapsed();
    let (trace, journal, registry, timeline) = cluster.into_records();
    RunOutput {
        metrics,
        result,
        trace,
        notes,
        updates_per_iteration: Vec::new(),
        journal,
        registry,
        timeline,
        runtime,
        // Runs execute sequentially within a process, so the global
        // collector holds exactly this run's spans.
        host_spans: graphbench_sim::hosttrace::drain(),
    }
}

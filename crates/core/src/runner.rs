//! Experiment execution.

use crate::paper::PaperEnv;
use crate::stats::MultiRunRecord;
use crate::system::SystemId;
use graphbench_algos::workload::{PageRankConfig, StopCriterion};
use graphbench_algos::{Workload, WorkloadKind, WorkloadResult, UNREACHABLE};
use graphbench_engines::shuffle::ShuffleMode;
use graphbench_engines::EngineInput;
use graphbench_gen::DatasetKind;
use graphbench_obs::ObserverHub;
use graphbench_sim::impl_to_json;
use graphbench_sim::{FaultPlan, HostSpan, Journal, MetricsRegistry, RunMetrics, Timeline, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// One cell of the paper's experiment matrix (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentSpec {
    pub system: SystemId,
    pub workload: WorkloadKind,
    pub dataset: DatasetKind,
    pub machines: usize,
}

/// Everything recorded about one run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The paper's label for the system variant (e.g. "GL-S-R-T").
    pub system: String,
    pub workload: &'static str,
    pub dataset: &'static str,
    pub machines: usize,
    pub metrics: RunMetrics,
    pub notes: Vec<String>,
    /// Vertices updated per iteration where tracked (Figure 4).
    pub updates_per_iteration: Vec<u64>,
    /// Per-machine memory time series (Figure 10).
    pub trace: Trace,
    /// Structured per-charge event log; per-phase sums are bit-identical to
    /// `metrics.phases`. Export with [`Journal::to_jsonl`] (`--journal`).
    pub journal: Journal,
    /// Named counters and histograms accumulated during the run.
    pub registry: MetricsRegistry,
    /// Per-machine span timeline behind the `--trace` Perfetto export and
    /// the critical-path report: a view of `journal`'s timed events that
    /// shares its storage. Replaying it reproduces `runtime` bit-for-bit.
    pub timeline: Timeline,
    /// The simulated runtime: the cluster clock when the run ended.
    /// `metrics.total_time()` sums the same charges per phase and so can
    /// differ in the last ulps; this field is the clock itself.
    pub runtime: f64,
    /// Host-wallclock executor spans (empty unless tracing is enabled).
    /// Nondeterministic — deliberately left out of the JSON record so
    /// golden records and determinism checks never see them.
    pub host_spans: Vec<HostSpan>,
    /// Size of the produced result (ranks/labels emitted, vertices
    /// reached), the denominator of the bytes-moved-per-result efficiency
    /// column. Derivable from the result, so left out of the JSON record
    /// to keep golden records byte-identical.
    pub result_items: u64,
}

impl_to_json!(RunRecord {
    system,
    workload,
    dataset,
    machines,
    metrics,
    notes,
    updates_per_iteration,
    trace,
    journal,
    registry,
    timeline,
    runtime,
});

impl RunRecord {
    /// The cell the paper's figures print: total seconds or a failure code.
    pub fn cell(&self) -> String {
        if self.metrics.status.is_ok() {
            format!("{:.0}", self.metrics.total_time())
        } else {
            self.metrics.status.code().to_string()
        }
    }
}

/// Executes experiments against a [`PaperEnv`].
pub struct Runner {
    pub env: PaperEnv,
    /// The seed sweep for `run_multi`/`run_matrix_multi` (the
    /// `GRAPHBENCH_SEEDS` plumbing lands here via `graphbench_repro`'s
    /// `seeds()`). Empty means "just the environment's own seed" — the
    /// legacy single-seed behaviour. `env.seed` should equal the first
    /// entry so single-seed sweeps reuse the primary environment's dataset
    /// cache.
    pub seeds: Vec<u64>,
    /// Lazily built environments for the non-primary sweep seeds, each
    /// keeping its own dataset cache across cells.
    alt_envs: HashMap<u64, PaperEnv>,
    /// Fixed iteration count for `-I` PageRank variants (the paper's
    /// configuration studies use 30 and 55).
    pub fixed_pr_iterations: u32,
    /// Tolerance for exact PageRank. The paper stops at the initial rank
    /// (1.0); small synthetic graphs mix much faster than billion-edge
    /// graphs, so a tighter default compensates to keep iteration counts in
    /// the paper's range (~10-20 for Twitter-like inputs).
    pub pr_tolerance: f64,
    /// Host threads for the parallel superstep executor. `None` keeps the
    /// process-wide setting (the `GRAPHBENCH_THREADS` environment variable,
    /// defaulting to the available cores); `Some(1)` forces the legacy
    /// serial path. Thread count never changes any simulated metric.
    pub threads: Option<usize>,
    /// Intra-machine sub-chunk size for the parallel executor. `None` keeps
    /// the process-wide setting (the `GRAPHBENCH_CHUNK` environment
    /// variable, defaulting to 4096). Chunk size never changes any
    /// simulated metric — see the chunk-invariance test suite.
    pub chunk: Option<usize>,
    /// Message-shuffle data path for the BSP runtime. `None` keeps the
    /// process-wide setting (the `GRAPHBENCH_SHUFFLE` environment variable,
    /// defaulting to the radix path). Shuffle mode never changes any
    /// simulated metric — both paths produce bit-identical records.
    pub shuffle: Option<ShuffleMode>,
    /// Fault schedule injected into every run. `None` keeps the process-wide
    /// setting (the `GRAPHBENCH_FAULTS` environment variable, e.g.
    /// `"crash@120:m3; straggler@60+30:m1x2"`), which itself defaults to a
    /// fault-free plan.
    pub faults: Option<FaultPlan>,
    /// Live observability hub (`--serve`/`--progress`/progress logs). When
    /// set, every run is announced to the hub and the hub rides the
    /// cluster's per-barrier observer hook. Strictly read-only: records are
    /// byte-identical with or without it (see `tests/observer_safety.rs`).
    pub obs: Option<Arc<ObserverHub>>,
}

/// `GRAPHBENCH_FAULTS`, parsed once per process. A malformed value is
/// reported to stderr once and treated as fault-free rather than aborting
/// every run in the matrix.
fn env_fault_plan() -> FaultPlan {
    use std::sync::OnceLock;
    static PLAN: OnceLock<FaultPlan> = OnceLock::new();
    PLAN.get_or_init(|| match std::env::var("GRAPHBENCH_FAULTS") {
        Ok(s) if !s.trim().is_empty() => match FaultPlan::parse(&s) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("GRAPHBENCH_FAULTS ignored: {e}");
                FaultPlan::none()
            }
        },
        _ => FaultPlan::none(),
    })
    .clone()
}

impl Runner {
    pub fn new(env: PaperEnv) -> Self {
        Runner {
            env,
            seeds: Vec::new(),
            alt_envs: HashMap::new(),
            fixed_pr_iterations: 30,
            pr_tolerance: 1e-6,
            threads: None,
            chunk: None,
            shuffle: None,
            faults: None,
            obs: None,
        }
    }

    /// The seeds a multi-run sweep executes, in order: `seeds` when set,
    /// otherwise just the environment's own seed.
    pub fn effective_seeds(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![self.env.seed]
        } else {
            self.seeds.clone()
        }
    }

    /// The workload instance a spec resolves to (source vertices and
    /// PageRank criteria are environment- and variant-dependent).
    pub fn workload_for(&mut self, spec: &ExperimentSpec) -> Workload {
        let ds = self.env.prepare(spec.dataset);
        match spec.workload {
            WorkloadKind::PageRank => {
                let stop = spec
                    .system
                    .pagerank_stop(self.fixed_pr_iterations)
                    .unwrap_or(StopCriterion::Tolerance(self.pr_tolerance));
                Workload::PageRank(PageRankConfig {
                    damping: graphbench_algos::DAMPING,
                    stop,
                    approximate: spec.system.approximate_pagerank(),
                })
            }
            WorkloadKind::Wcc => Workload::Wcc,
            WorkloadKind::Sssp => Workload::Sssp { source: ds.source },
            WorkloadKind::KHop => Workload::khop3(ds.source),
        }
    }

    /// Execute one experiment.
    pub fn run(&mut self, spec: &ExperimentSpec) -> RunRecord {
        if let Some(t) = self.threads {
            graphbench_engines::exec::set_threads(t);
        }
        if let Some(c) = self.chunk {
            graphbench_engines::exec::set_chunk_size(c);
        }
        if let Some(s) = self.shuffle {
            graphbench_engines::shuffle::set_mode(s);
        }
        let workload = self.workload_for(spec);
        let ds = self.env.prepare(spec.dataset);
        let mut cluster = if spec.system == SystemId::SingleThread {
            self.env.cost_machine_spec(spec.dataset)
        } else {
            self.env.cluster_for(spec.dataset, spec.machines, spec.workload)
        };
        cluster.faults = self.faults.clone().unwrap_or_else(env_fault_plan);
        if let Some(hub) = &self.obs {
            hub.begin_run(
                &spec.system.label(),
                spec.workload.name(),
                spec.dataset.name(),
                spec.machines,
                self.env.scale.base,
                self.env.seed,
            );
            cluster.observers.attach(Arc::clone(hub) as Arc<dyn graphbench_sim::ClusterObserver>);
        }
        let partitions = self.env.graphx_partitions(spec.dataset, spec.machines);
        let engine = spec.system.build(partitions);
        let input = EngineInput {
            edges: &ds.dataset.edges,
            graph: &ds.graph,
            workload,
            cluster,
            seed: self.env.seed,
            scale: ds.scale_info,
        };
        let mut out = engine.run(&input);
        // The dataset's resident share of memory: the runner owns the CSR,
        // so it (not the engine) knows the actual layout bytes.
        out.metrics.dataset_mem_bytes = ds.graph.raw_bytes();
        if let Some(hub) = &self.obs {
            hub.end_run(out.metrics.status.code(), out.runtime, out.journal.to_jsonl());
        }
        let result_items = match &out.result {
            Some(WorkloadResult::Ranks(r)) => r.len() as u64,
            Some(WorkloadResult::Labels(l)) => l.len() as u64,
            // Reachability results only count the vertices actually reached.
            Some(WorkloadResult::Distances(d)) => {
                d.iter().filter(|&&d| d != UNREACHABLE).count() as u64
            }
            None => 0,
        };
        RunRecord {
            system: spec.system.label(),
            workload: spec.workload.name(),
            dataset: spec.dataset.name(),
            machines: spec.machines,
            metrics: out.metrics,
            notes: out.notes,
            updates_per_iteration: out.updates_per_iteration,
            trace: out.trace,
            journal: out.journal,
            registry: out.registry,
            timeline: out.timeline,
            runtime: out.runtime,
            host_spans: out.host_spans,
            result_items,
        }
    }

    /// Execute one experiment under a specific generator seed, reusing (or
    /// lazily building) the per-seed environment so dataset caches survive
    /// across cells of a sweep.
    pub fn run_seeded(&mut self, spec: &ExperimentSpec, seed: u64) -> RunRecord {
        if seed == self.env.seed {
            return self.run(spec);
        }
        let scale = self.env.scale;
        let mut env = self.alt_envs.remove(&seed).unwrap_or_else(|| PaperEnv::new(scale, seed));
        std::mem::swap(&mut self.env, &mut env);
        let rec = self.run(spec);
        std::mem::swap(&mut self.env, &mut env);
        self.alt_envs.insert(seed, env);
        rec
    }

    /// Execute one experiment at every sweep seed and aggregate the spread.
    /// With a single seed this is `run` wrapped transparently — the record
    /// serializes byte-identically to the legacy path.
    pub fn run_multi(&mut self, spec: &ExperimentSpec) -> MultiRunRecord {
        let seeds = self.effective_seeds();
        let runs = seeds.iter().map(|&s| self.run_seeded(spec, s)).collect();
        MultiRunRecord::new(seeds, runs)
    }

    /// Execute a full matrix (cartesian product), in order.
    pub fn run_matrix(
        &mut self,
        systems: &[SystemId],
        workloads: &[WorkloadKind],
        datasets: &[DatasetKind],
        cluster_sizes: &[usize],
    ) -> Vec<RunRecord> {
        let mut records = Vec::new();
        for &dataset in datasets {
            for &workload in workloads {
                for &machines in cluster_sizes {
                    for &system in systems {
                        records.push(self.run(&ExperimentSpec {
                            system,
                            workload,
                            dataset,
                            machines,
                        }));
                    }
                }
            }
        }
        records
    }

    /// `run_matrix` across the seed sweep: the same cell order, one
    /// [`MultiRunRecord`] per cell.
    pub fn run_matrix_multi(
        &mut self,
        systems: &[SystemId],
        workloads: &[WorkloadKind],
        datasets: &[DatasetKind],
        cluster_sizes: &[usize],
    ) -> Vec<MultiRunRecord> {
        let mut records = Vec::new();
        for &dataset in datasets {
            for &workload in workloads {
                for &machines in cluster_sizes {
                    for &system in systems {
                        records.push(self.run_multi(&ExperimentSpec {
                            system,
                            workload,
                            dataset,
                            machines,
                        }));
                    }
                }
            }
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbench_gen::Scale;

    fn runner() -> Runner {
        Runner::new(PaperEnv::new(Scale { base: 600 }, 11))
    }

    #[test]
    fn single_run_produces_a_record() {
        let mut r = runner();
        let rec = r.run(&ExperimentSpec {
            system: SystemId::BlogelV,
            workload: WorkloadKind::KHop,
            dataset: DatasetKind::Twitter,
            machines: 16,
        });
        assert!(rec.metrics.status.is_ok(), "{:?}", rec.metrics.status);
        assert_eq!(rec.system, "BV");
        assert_eq!(rec.dataset, "Twitter");
        assert!(rec.metrics.total_time() > 0.0);
        assert!(rec.cell().parse::<f64>().is_ok());
    }

    #[test]
    fn failures_render_as_codes() {
        let mut r = runner();
        // Blogel-B on WRN: the paper-scale MPI overflow.
        let rec = r.run(&ExperimentSpec {
            system: SystemId::BlogelB,
            workload: WorkloadKind::KHop,
            dataset: DatasetKind::Wrn,
            machines: 16,
        });
        assert_eq!(rec.cell(), "MPI");
    }

    #[test]
    fn gl_variants_resolve_pagerank_stops() {
        let mut r = runner();
        let tol = ExperimentSpec {
            system: SystemId::GraphLab {
                sync: true,
                auto: false,
                stop: crate::system::GlStop::Tolerance,
            },
            workload: WorkloadKind::PageRank,
            dataset: DatasetKind::Twitter,
            machines: 16,
        };
        match r.workload_for(&tol) {
            Workload::PageRank(cfg) => {
                assert_eq!(cfg.stop, StopCriterion::Tolerance(1e-6));
                assert!(cfg.approximate);
            }
            other => panic!("{other:?}"),
        }
        let iters = ExperimentSpec {
            system: SystemId::GraphLab {
                sync: true,
                auto: false,
                stop: crate::system::GlStop::Iterations,
            },
            ..tol
        };
        match r.workload_for(&iters) {
            Workload::PageRank(cfg) => {
                assert_eq!(cfg.stop, StopCriterion::Iterations(30));
                assert!(!cfg.approximate);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matrix_covers_the_product() {
        let mut r = runner();
        let recs = r.run_matrix(
            &[SystemId::BlogelV, SystemId::Vertica],
            &[WorkloadKind::KHop],
            &[DatasetKind::Twitter],
            &[16, 32],
        );
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn records_serialize_to_json() {
        let mut r = runner();
        let rec = r.run(&ExperimentSpec {
            system: SystemId::Vertica,
            workload: WorkloadKind::KHop,
            dataset: DatasetKind::Twitter,
            machines: 16,
        });
        let json = graphbench_sim::json::to_string(&rec);
        assert!(json.contains("\"system\":\"V\""));
    }
}

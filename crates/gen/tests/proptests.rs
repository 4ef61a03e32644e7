//! Property-based tests for the dataset generators: structural invariants
//! must hold for any configuration in the supported ranges.

use graphbench_gen::check::{cases, coin, float, int};
use graphbench_gen::powerlaw::{chung_lu, PowerLawConfig};
use graphbench_gen::road::{road_network, RoadConfig};
use graphbench_gen::web::{web_graph, WebConfig};
use graphbench_graph::{stats, CsrGraph};

const CASES: u32 = 32;

#[test]
fn chung_lu_respects_counts_and_ranges() {
    // A case that once failed: two small components anchored into each
    // other instead of into the giant one.
    chung_lu_case(&(129, 1, 0.5138548730699318, 773, true));
    let gen = |r: &mut _| {
        (int(r, 10..2_000), int(r, 1..20), float(r, 0.3..0.95), int(r, 0..1_000), coin(r))
    };
    cases("chung_lu_respects_counts_and_ranges", CASES, gen, chung_lu_case);
}

fn chung_lu_case(&(n, avg_deg, alpha, seed, connect): &(u64, u64, f64, u64, bool)) {
    let cfg = PowerLawConfig {
        num_vertices: n,
        num_edges: n * avg_deg,
        alpha,
        offset: 3.0,
        connect,
        seed,
    };
    let el = chung_lu(&cfg);
    assert_eq!(el.num_vertices, n);
    // Connect-mode may add up to one stitching edge per component.
    assert!(el.num_edges() >= n * avg_deg);
    assert!(el.num_edges() < n * avg_deg + n);
    for e in &el.edges {
        assert!((e.src as u64) < n && (e.dst as u64) < n);
    }
    if connect {
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(stats::compute_stats(&g).components, 1);
    }
}

#[test]
fn road_network_is_a_bounded_degree_symmetric_lattice() {
    let gen = |r: &mut _| {
        (int(r, 2..40) as u32, int(r, 2..40) as u32, float(r, 0.3..1.0), int(r, 0..1_000))
    };
    cases(
        "road_network_is_a_bounded_degree_symmetric_lattice",
        CASES,
        gen,
        |&(w, h, keep, seed)| {
            let rn = road_network(&RoadConfig { width: w, height: h, keep_prob: keep, seed });
            assert_eq!(rn.edges.num_vertices, w as u64 * h as u64);
            assert_eq!(rn.coords.len(), (w * h) as usize);
            let g = CsrGraph::from_edge_list(&rn.edges);
            let s = stats::compute_stats(&g);
            assert!(s.max_out_degree <= 4);
            // Two-way streets: every edge has its reverse.
            let set: std::collections::HashSet<_> =
                rn.edges.edges.iter().map(|e| (e.src, e.dst)).collect();
            for e in &rn.edges.edges {
                assert!(set.contains(&(e.dst, e.src)));
            }
            // Coordinates match the row-major layout.
            for (v, &(x, y)) in rn.coords.iter().enumerate() {
                assert_eq!(v as u64, y as u64 * w as u64 + x as u64);
            }
        },
    );
}

#[test]
fn web_graph_hosts_are_total_and_counts_exact() {
    let gen = |r: &mut _| {
        let (n, avg_deg, hosts) = (int(r, 50..2_000), int(r, 1..20), int(r, 1..40) as u32);
        (n, avg_deg, hosts, float(r, 0.0..1.0), int(r, 0..1_000))
    };
    cases(
        "web_graph_hosts_are_total_and_counts_exact",
        CASES,
        gen,
        |&(n, avg_deg, hosts, intra, seed)| {
            let cfg = WebConfig {
                num_vertices: n,
                num_edges: n * avg_deg,
                num_hosts: hosts,
                intra_host_prob: intra,
                alpha: 0.75,
                self_edge_fraction: 1e-3,
                seed,
            };
            let w = web_graph(&cfg);
            assert_eq!(w.edges.num_edges(), n * avg_deg);
            assert_eq!(w.hosts.len(), n as usize);
            for &h in &w.hosts {
                assert!(h < hosts);
            }
            // Host layout is contiguous.
            for pair in w.hosts.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
            for e in &w.edges.edges {
                assert!((e.src as u64) < n && (e.dst as u64) < n);
            }
        },
    );
}

#[test]
fn generators_are_deterministic() {
    cases(
        "generators_are_deterministic",
        CASES,
        |r| int(r, 0..1_000),
        |&seed| {
            let cfg = PowerLawConfig {
                num_vertices: 200,
                num_edges: 2_000,
                seed,
                ..PowerLawConfig::default()
            };
            assert_eq!(chung_lu(&cfg), chung_lu(&cfg));
            let r = RoadConfig { width: 10, height: 10, keep_prob: 0.8, seed };
            assert_eq!(road_network(&r).edges, road_network(&r).edges);
            let w = WebConfig { num_vertices: 200, num_edges: 2_000, seed, ..WebConfig::default() };
            assert_eq!(web_graph(&w).edges, web_graph(&w).edges);
        },
    );
}

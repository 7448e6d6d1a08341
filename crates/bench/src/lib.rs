//! # rescc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5). Each `src/bin/<id>.rs` binary reproduces one
//! artifact and prints the same rows/series the paper reports;
//! `reproduce-all` runs the full set.
//!
//! Shared here: the buffer-size grids, table formatting, and the sweep
//! drivers (parallelized across topologies with scoped threads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use rescc_backends::{Backend, MscclBackend, NcclBackend, RescclBackend, RunReport};
use rescc_lang::AlgoSpec;
use rescc_sim::SimResult;
use rescc_topology::Topology;

/// 1 MiB.
pub const MB: u64 = 1 << 20;
/// 1 GiB.
pub const GB: u64 = 1 << 30;

/// The paper's buffer-size sweep: 8 MB – 4 GB in powers of two
/// (Figs. 6–7).
pub fn buffer_sweep() -> Vec<u64> {
    (0..10).map(|i| (8 * MB) << i).collect()
}

/// A shorter sweep for the V100 figures (16 MB – 4 GB, Fig. 11).
pub fn v100_sweep() -> Vec<u64> {
    (0..9).map(|i| (16 * MB) << i).collect()
}

/// Human-friendly byte formatting ("8MB", "4GB").
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= GB {
        format!("{}GB", bytes / GB)
    } else {
        format!("{}MB", bytes / MB)
    }
}

/// Percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The three backends under test, boxed for uniform iteration.
pub fn all_backends() -> Vec<Box<dyn Backend + Send + Sync>> {
    vec![
        Box::new(NcclBackend::default()),
        Box::new(MscclBackend::default()),
        Box::new(RescclBackend::default()),
    ]
}

/// Run `spec` on every backend for one buffer size (validation off — these
/// are bandwidth sweeps; correctness is covered by the test suite).
pub fn run_all(
    spec: &AlgoSpec,
    topo: &Topology,
    buffer: u64,
    chunk: u64,
) -> SimResult<Vec<RunReport>> {
    all_backends()
        .iter()
        .map(|b| b.run_unchecked(spec, topo, buffer, chunk))
        .collect()
}

/// A standard comparison panel: NCCL runs its own standard algorithm
/// (`nccl_spec` — real NCCL cannot execute custom algorithms), while MSCCL
/// and ResCCL execute the custom `custom_spec`, swept over the paper's
/// buffer grid.
pub fn backend_panel(title: &str, nccl_spec: &AlgoSpec, custom_spec: &AlgoSpec, topo: &Topology) {
    backend_panel_with(title, nccl_spec, custom_spec, topo, &buffer_sweep());
}

/// [`backend_panel`] with an explicit buffer grid.
pub fn backend_panel_with(
    title: &str,
    nccl_spec: &AlgoSpec,
    custom_spec: &AlgoSpec,
    topo: &Topology,
    buffers: &[u64],
) {
    use rescc_backends::{MscclBackend, NcclBackend, RescclBackend};
    let nccl = NcclBackend::default();
    let msccl = MscclBackend::default();
    let resccl = RescclBackend::default();
    let mut rows: Vec<Option<Vec<String>>> = vec![None; buffers.len()];
    std::thread::scope(|scope| {
        for (i, slot) in rows.iter_mut().enumerate() {
            let buffer = buffers[i];
            let (nccl, msccl, resccl) = (&nccl, &msccl, &resccl);
            scope.spawn(move || {
                let n = nccl
                    .run_unchecked(nccl_spec, topo, buffer, MB)
                    .unwrap_or_else(|e| panic!("nccl {}: {e}", fmt_bytes(buffer)));
                let m = msccl
                    .run_unchecked(custom_spec, topo, buffer, MB)
                    .unwrap_or_else(|e| panic!("msccl {}: {e}", fmt_bytes(buffer)));
                let r = resccl
                    .run_unchecked(custom_spec, topo, buffer, MB)
                    .unwrap_or_else(|e| panic!("resccl {}: {e}", fmt_bytes(buffer)));
                *slot = Some(vec![
                    fmt_bytes(buffer),
                    format!("{:.2}", n.algbw_gbps()),
                    format!("{:.2}", m.algbw_gbps()),
                    format!("{:.2}", r.algbw_gbps()),
                    format!("{:.2}x", r.algbw_gbps() / n.algbw_gbps()),
                    format!("{:.2}x", r.algbw_gbps() / m.algbw_gbps()),
                ]);
            });
        }
    });
    let rows: Vec<Vec<String>> = rows.into_iter().map(|r| r.expect("filled")).collect();
    print_table(
        &format!("{title}: algorithm bandwidth (GB/s)"),
        &["buffer", "NCCL", "MSCCL", "ResCCL", "vs NCCL", "vs MSCCL"],
        &rows,
    );
}

/// Sweep one (spec, topo) pair over buffer sizes on all backends, in
/// parallel over buffer sizes. Returns `results[size_idx][backend_idx]`.
pub fn sweep(spec: &AlgoSpec, topo: &Topology, buffers: &[u64], chunk: u64) -> Vec<Vec<RunReport>> {
    let mut out: Vec<Option<Vec<RunReport>>> = vec![None; buffers.len()];
    std::thread::scope(|s| {
        for (i, slot) in out.iter_mut().enumerate() {
            let buffer = buffers[i];
            s.spawn(move || {
                *slot = Some(
                    run_all(spec, topo, buffer, chunk)
                        .unwrap_or_else(|e| panic!("sweep {} failed: {e}", fmt_bytes(buffer))),
                );
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_matches_paper_range() {
        let g = buffer_sweep();
        assert_eq!(g.first().copied(), Some(8 * MB));
        assert_eq!(g.last().copied(), Some(4 * GB));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(8 * MB), "8MB");
        assert_eq!(fmt_bytes(4 * GB), "4GB");
        assert_eq!(fmt_bytes(512 * MB), "512MB");
    }

    #[test]
    fn run_all_produces_three_reports() {
        let spec = rescc_algos::ring_allgather(8);
        let topo = Topology::a100(1, 8);
        let reps = run_all(&spec, &topo, 16 * MB, MB).unwrap();
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0].backend, "nccl");
        assert_eq!(reps[2].backend, "resccl");
    }
}

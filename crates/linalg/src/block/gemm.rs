//! Blocked GEMM and SYRK drivers: the jc → pc → ic loop nest over packed
//! panels, with the `ic` macro-panel loop fanned out over threads.
//!
//! # Loop structure and determinism
//!
//! The nest is the BLIS order — columns in `NC` chunks (`jc`), depth in
//! `KC` slabs (`pc`), rows in `MC` panels (`ic`), then `NR`/`mr` register
//! tiles. The *calling* thread walks `jc` and `pc` and packs the right
//! operand once per slab into pooled workspace; the `ic` panel loop is then
//! split across threads ([`cbmf_parallel::par_row_blocks_mut`], chunk
//! boundaries on `MC` multiples), with every worker packing its own A
//! panels into its own pooled buffer and writing its own C rows. Packed-A
//! ownership is strictly per-thread; the shared packed-B panel is read-only
//! during the fan-out — nothing is synchronized beyond the fork-join.
//!
//! One output element `(i, j)` lives in exactly one `jc` chunk and one
//! micro-tile row, so its value is accumulated as: for each `pc` slab in
//! ascending order, a register-tile reduction over that slab's `k` range
//! (strictly sequential — SIMD lanes span tile columns, never `k`), added
//! onto the element. Neither the thread partition nor the `ic`/`ir`
//! positions enter that order — the element's accumulation order is a pure
//! function of the jc → pc schedule — so **any** split of the panel loop
//! over threads produces bitwise-identical output at any
//! `RAYON_NUM_THREADS`.
//!
//! Compared to the row-split-outside-the-nest scheme this replaced, the
//! right operand is packed once per (`jc`, `pc`) slab instead of once per
//! worker per slab: `O(k·n)` total B-pack traffic, independent of thread
//! count, with threads cooperating inside one cache-resident slab instead
//! of each streaming its own.

use cbmf_parallel::workspace;

use super::config::BlockConfig;
use super::kernel::{microkernel, Isa, MR_MAX, NR};
use super::pack::{pack_a, pack_b, View};
use super::{PACK_BYTES, WORKSPACE_REUSES};
use crate::mat::grain_rows;

/// Fixed workspace-slot roles: packed A panels (per worker) always live in
/// slot 0, the shared packed B panel (calling thread) in slot 1. Pinning
/// the roles keeps every pooled workspace converging to one high-water
/// size per slot no matter which role pops it, so steady state never
/// reallocates.
const PA_SLOT: usize = 0;
const PB_SLOT: usize = 1;

/// `c += op(a) · op(b)` over the full `m × n` output, blocked and packed.
/// `c` must hold `m * n` row-major elements (zeroed by the caller for a
/// plain product).
pub(super) fn gemm_into(
    c: &mut [f64],
    m: usize,
    n: usize,
    a: &View<'_>,
    b: &View<'_>,
    cfg: BlockConfig,
    isa: Isa,
) {
    let k = a.cols;
    debug_assert_eq!(a.rows, m);
    debug_assert_eq!(b.rows, k);
    debug_assert_eq!(b.cols, n);
    debug_assert!(c.len() >= m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    driver(&mut c[..m * n], m, n, k, a, b, None, cfg, isa, false);
}

/// `c += op(a) · diag(w) · op(a)ᵀ` for an `n × k` view, computing only
/// tiles that touch the lower triangle and mirroring afterwards. `c` must
/// hold `n * n` zeroed row-major elements.
pub(super) fn syrk_into(
    c: &mut [f64],
    n: usize,
    a: &View<'_>,
    w: Option<&[f64]>,
    cfg: BlockConfig,
    isa: Isa,
) {
    let k = a.cols;
    debug_assert_eq!(a.rows, n);
    debug_assert!(c.len() >= n * n);
    if n == 0 {
        return;
    }
    if k > 0 {
        let at = View {
            data: a.data,
            rows: k,
            cols: n,
            rs: a.cs,
            cs: a.rs,
        };
        driver(&mut c[..n * n], n, n, k, a, &at, w, cfg, isa, true);
    }
    // Mirror the computed lower triangle; entries above the diagonal inside
    // diagonal-straddling tiles are overwritten by their mirror images.
    for i in 0..n {
        for j in i + 1..n {
            c[i * n + j] = c[j * n + i];
        }
    }
}

/// The shared jc → pc schedule over `c` (exactly `m * n` elements): packs
/// one `KC × NC` right-operand panel per slab on the calling thread, then
/// fans the `MC`-row panels of that slab out over threads. `lower_only`
/// restricts computation to register tiles that touch the lower triangle
/// (SYRK).
#[allow(clippy::too_many_arguments)] // internal plumbing, called twice
fn driver(
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    a: &View<'_>,
    b: &View<'_>,
    w: Option<&[f64]>,
    cfg: BlockConfig,
    isa: Isa,
    lower_only: bool,
) {
    let mut ws = workspace::acquire();
    if ws.reused {
        WORKSPACE_REUSES.inc();
    }
    // One packed B slab is at most KC × NC; a shallower or narrower product
    // grows the pooled buffer only to its own slab size, so one paper-scale
    // product does not pin a full KC × NC panel for the rest of the process.
    let pb_buf = ws.slot(PB_SLOT, cfg.kc.min(k) * cfg.nc.min(n.div_ceil(NR) * NR));
    for jc in (0..n).step_by(cfg.nc) {
        let nc_eff = cfg.nc.min(n - jc);
        // For the SYRK, row panels entirely above the diagonal chunk have no
        // live tiles; panels are `mc`-aligned, so the first live one starts
        // at the panel boundary at or below row `jc`.
        let row0 = if lower_only {
            (jc / cfg.mc) * cfg.mc
        } else {
            0
        };
        let mut pc = 0;
        while pc < k {
            let kc_eff = cfg.kc.min(k - pc);
            let blen = pack_b(pb_buf, b, pc, kc_eff, jc, nc_eff, w);
            PACK_BYTES.add(8 * blen as u64);
            let pb = &pb_buf[..blen];
            cbmf_parallel::par_row_blocks_mut(
                &mut c[row0 * n..m * n],
                n,
                cfg.mc,
                grain_rows(kc_eff * nc_eff),
                |local0, chunk| {
                    panel_worker(
                        chunk,
                        row0 + local0,
                        n,
                        a,
                        pc,
                        kc_eff,
                        jc,
                        nc_eff,
                        pb,
                        cfg,
                        isa,
                        lower_only,
                    );
                },
            );
            pc += kc_eff;
        }
    }
}

/// One worker's `ic` panel loop over output rows `[i0, i0 + rows)` of one
/// (`jc`, `pc`) slab, where `chunk` is that row range of C and `i0` is a
/// multiple of `cfg.mc`. Packs each A panel into this worker's pooled
/// buffer and runs the register-tile loops against the shared packed B.
#[allow(clippy::too_many_arguments)] // hot-loop plumbing
fn panel_worker(
    chunk: &mut [f64],
    i0: usize,
    n: usize,
    a: &View<'_>,
    pc: usize,
    kc_eff: usize,
    jc: usize,
    nc_eff: usize,
    pb: &[f64],
    cfg: BlockConfig,
    isa: Isa,
    lower_only: bool,
) {
    let rows = chunk.len() / n;
    let mr = isa.mr();
    let mut ws = workspace::acquire();
    if ws.reused {
        WORKSPACE_REUSES.inc();
    }
    let pa_buf = ws.slot(PA_SLOT, cfg.mc * cfg.kc);
    let mut acc = [0.0f64; MR_MAX * NR];
    for ic in (0..rows).step_by(cfg.mc) {
        let mc_eff = cfg.mc.min(rows - ic);
        if lower_only && jc > i0 + ic + mc_eff - 1 {
            continue; // row panel entirely left of this column chunk
        }
        let alen = pack_a(pa_buf, a, i0 + ic, mc_eff, pc, kc_eff, mr);
        PACK_BYTES.add(8 * alen as u64);
        macro_kernel(
            chunk, n, ic, jc, mc_eff, nc_eff, kc_eff, pa_buf, pb, isa, lower_only, i0, &mut acc,
        );
    }
}

/// Runs the register-tile loops over one packed `MC × KC` / `KC × NC` panel
/// pair, accumulating into C through a stack tile (masking ragged edges).
#[allow(clippy::too_many_arguments)] // hot-loop plumbing
fn macro_kernel(
    chunk: &mut [f64],
    n: usize,
    ic: usize,
    jc: usize,
    mc_eff: usize,
    nc_eff: usize,
    kc_eff: usize,
    pa: &[f64],
    pb: &[f64],
    isa: Isa,
    lower_only: bool,
    i0: usize,
    acc: &mut [f64; MR_MAX * NR],
) {
    let mr = isa.mr();
    for jr in (0..nc_eff).step_by(NR) {
        let nr_eff = NR.min(nc_eff - jr);
        let pb_panel = &pb[(jr / NR) * NR * kc_eff..][..NR * kc_eff];
        for ir in (0..mc_eff).step_by(mr) {
            let mr_eff = mr.min(mc_eff - ir);
            if lower_only && jc + jr > i0 + ic + ir + mr_eff - 1 {
                continue; // tile entirely above the diagonal
            }
            let pa_panel = &pa[(ir / mr) * mr * kc_eff..][..mr * kc_eff];
            microkernel(isa, kc_eff, pa_panel, pb_panel, acc);
            for r in 0..mr_eff {
                let row0 = (ic + ir + r) * n + jc + jr;
                let crow = &mut chunk[row0..row0 + nr_eff];
                for (cv, &av) in crow.iter_mut().zip(&acc[r * NR..r * NR + nr_eff]) {
                    *cv += av;
                }
            }
        }
    }
}

//! Criterion micro-benchmarks of the small linear-algebra kernels. The
//! paper-scale serial-vs-parallel kernels are the `kernels` report of
//! `ci_gate` (`cbmf_bench::kernels`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cbmf_linalg::{Cholesky, Matrix};

fn spd(n: usize) -> Matrix {
    let m = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
    let mut a = m.matmul_t(&m).expect("square");
    a.add_diag_mut(n as f64 * 0.1);
    a
}

fn bench_cholesky(c: &mut Criterion) {
    for n in [64usize, 256] {
        let a = spd(n);
        c.bench_function(&format!("cholesky_factor_{n}"), |b| {
            b.iter(|| Cholesky::new(&a).expect("spd"))
        });
        let chol = Cholesky::new(&a).expect("spd");
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        c.bench_function(&format!("cholesky_solve_{n}"), |b| {
            b.iter(|| chol.solve_vec(&rhs).expect("solve"))
        });
        let v: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 0.1).collect();
        c.bench_function(&format!("cholesky_rank_one_update_{n}"), |b| {
            b.iter_batched(
                || chol.clone(),
                |mut ch| ch.rank_one_update(&v).expect("update"),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_matmul(c: &mut Criterion) {
    for n in [64usize, 256] {
        let a = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 17) as f64);
        let b_mat = Matrix::from_fn(n, n, |i, j| ((3 * i + j) % 13) as f64);
        c.bench_function(&format!("matmul_{n}"), |bch| {
            bch.iter(|| a.matmul(&b_mat).expect("shapes"))
        });
        c.bench_function(&format!("matmul_t_{n}"), |bch| {
            bch.iter(|| a.matmul_t(&b_mat).expect("shapes"))
        });
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_cholesky, bench_matmul
}
criterion_main!(kernels);

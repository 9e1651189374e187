"""Benchmark the numba kernel path against the pure-numpy fallback.

Times the four hot kernels (attention has no jitted path) on forward-pass-sized inputs and a full sampler
run on a mid-sized model. Run from the repository root:

    python benchmarks/bench_kernels.py [--rows 256] [--runs 20]
"""

import argparse
import time

import numpy as np

from surelock import LockPolicy, ModelConfig, RunConfig, init_weights, run_sampler
from surelock import kernels
from surelock.cli import random_prompt


def timeit(fn, runs, warmup=3):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return np.mean(times) * 1e3, np.std(times) * 1e3


def bench_kernels(rows, runs):
    rng = np.random.default_rng(0)
    n, h, hkv, dh, v, d = 2 * rows, 8, 4, 32, 512, 256
    q = rng.normal(size=(rows, h, dh))
    k_all = rng.normal(size=(n, hkv, dh))
    v_all = rng.normal(size=(n, hkv, dh))
    x = rng.normal(size=(rows, d))
    gain, bias = rng.normal(size=d), rng.normal(size=d)
    z = rng.normal(size=(rows, v))
    lp = kernels.log_softmax_rows(z)
    lq = np.roll(lp, 1, axis=0)

    cases = [
        ("attention_rows", lambda: kernels.attention_rows(q, k_all, v_all, 0.18, h // hkv)),
        ("layernorm_rows", lambda: kernels.layernorm_rows(x, gain, bias)),
        ("log_softmax_rows", lambda: kernels.log_softmax_rows(z)),
        ("kl_rows", lambda: kernels.kl_rows(lp, lq)),
    ]
    print(f"kernel timings, {rows} query rows x {n} keys (mean +- std over {runs} runs)")
    print(f"{'kernel':<18}{'numpy [ms]':>14}{'numba [ms]':>14}{'speedup':>9}")
    for name, fn in cases:
        kernels.set_backend("numpy")
        np_mean, np_std = timeit(fn, runs)
        if kernels.HAS_NUMBA and name != "attention_rows":
            kernels.set_backend("numba")
            nb_mean, nb_std = timeit(fn, runs)
            print(f"{name:<18}{np_mean:>9.3f}+-{np_std:<4.2f}{nb_mean:>9.3f}+-{nb_std:<4.2f}"
                  f"{np_mean / nb_mean:>8.2f}x")
        else:
            print(f"{name:<18}{np_mean:>9.3f}+-{np_std:<4.2f}{'n/a':>14}{'':>9}")


def bench_sampler(runs):
    cfg = ModelConfig(vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=256, max_seq=256)
    w = init_weights(cfg, 3)
    prompt = random_prompt(cfg, 64, 1)
    run = RunConfig(n_prompt=64, n_gen=128, steps=64, mode="surelock", seed=2,
                    policy=LockPolicy(epsilon=5e-3))

    print(f"\nfull surelock run, N={run.n_positions}, S={run.steps}, "
          f"d={cfg.d_model}, L={cfg.n_layers}")
    backends = ("numpy", "numba", "auto") if kernels.HAS_NUMBA else ("numpy",)
    times = {b: [] for b in backends}
    for b in backends:  # warm every path (JIT, BLAS) before timing
        kernels.set_backend(b)
        run_sampler(run, w, prompt)
    # interleave reps so slow thermal/scheduler drift hits all backends alike
    for _ in range(max(3, runs // 4)):
        for b in backends:
            kernels.set_backend(b)
            t0 = time.perf_counter()
            run_sampler(run, w, prompt)
            times[b].append(time.perf_counter() - t0)
    results = {}
    for b in backends:
        mean, std = np.mean(times[b]) * 1e3, np.std(times[b]) * 1e3
        results[b] = mean
        print(f"  {b:<7} {mean:8.1f} +- {std:.1f} ms")
    if "auto" in results:
        print(f"  auto (per-kernel routing) vs numpy: {results['numpy'] / results['auto']:.2f}x, "
              f"vs numba: {results['numba'] / results['auto']:.2f}x")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, default=256, help="query rows per kernel call")
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args()
    if not kernels.HAS_NUMBA:
        print("numba not importable; timing the numpy path only")
    bench_kernels(args.rows, args.runs)
    bench_sampler(args.runs)


if __name__ == "__main__":
    main()

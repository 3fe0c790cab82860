"""Run one rotinv command in-process with spans around public layer functions.

    python3 perfbench/traced_cli.py SPANS_JSON CAPTURE_NPZ|- -- ARGV...

ARGV is what follows `python -m rotinv`.  The process imports the package,
wraps every listed function in every rotinv module that binds it (so calls
made inside the package are seen too), runs ``rotinv.cli.main(ARGV)`` and
writes the spans, counters and the time the imports finished to SPANS_JSON
once, at exit.  With a CAPTURE_NPZ path it also saves the states handed to
``encode_state`` and returned by ``decode_state``, so the caller can check
decoded dynamics against its own reference.  The exit code is main's.

Run from the repository root with ``src`` on PYTHONPATH; the benchmark does
this, one fresh process per command, so the package's lru_caches start cold
as they do for the CLI.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np
import scipy.sparse as sp

# The public functions timed in each layer, as named in perfbench/README.md.
LAYER_FUNCTIONS = {
    "jsonio": ("dump_json", "load_json"),
    "ham_model": ("build_global", "is_translation_invariant",
                  "is_rotation_invariant", "save_hamiltonian",
                  "load_hamiltonian"),
    "spectral_engine": ("eigensolve", "lanczos_lowest", "evolve"),
    "tri_flags": ("cell_operator", "build_tri_hamiltonian",
                  "verify_flag_overlaps"),
    "spin_core": ("apply_on_sites", "total_spin_projector", "dicke_states",
                  "embed_on_support", "collective_spin_ops",
                  "multiplicity_basis"),
    "ri_encode": ("lift_term", "encode_hamiltonian", "encode_state",
                  "decode_state"),
}


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.captured: dict[str, list] = {"psi": [], "decoded": []}

    def count(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) may count or replace result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            return result if after is None else after(args, result)

        return traced

    def counting_csr(self):
        """A csr_matrix subclass that counts products with vectors.

        It shares the arrays of the matrix it wraps, and sp.issparse, the
        format and the dtype are unchanged, so a solver handed one takes the
        same path; the benchmark checks that outputs stay byte-identical.
        """
        tracer = self

        class CountingCSR(sp.csr_matrix):
            def _matmul_vector(self, other):
                tracer.count("spectral_engine.matvecs", 1)
                return super()._matmul_vector(other)

            def _matmul_multivector(self, other):
                tracer.count("spectral_engine.matvecs", other.shape[1])
                return super()._matmul_multivector(other)

        return CountingCSR

    def hooks(self, capture: bool) -> dict:
        """Counters taken from the arguments or results of some functions."""
        counting = self.counting_csr()

        def dumped(args, result):
            self.count("jsonio.bytes_written", os.path.getsize(args[1]))
            return result

        def loaded(args, result):
            self.count("jsonio.bytes_read", os.path.getsize(args[0]))
            return result

        def built(args, result):
            self.count("ham_model.global_nnz", result.nnz)
            return counting((result.data, result.indices, result.indptr),
                            shape=result.shape, copy=False)

        def cell(args, result):
            self.count("tri_flags.cell_nnz", result.nnz)
            return result

        def offsets(args, result):
            self.count("tri_flags.offsets_checked", len(result))
            return result

        def encoded(args, result):
            if capture:
                self.captured["psi"].append(np.array(args[0]))
            return result

        def decoded(args, result):
            if capture:
                self.captured["decoded"].append(np.array(result[0]))
            return result

        return {
            "jsonio.dump_json": dumped,
            "jsonio.load_json": loaded,
            "ham_model.build_global": built,
            "tri_flags.cell_operator": cell,
            "tri_flags.verify_flag_overlaps": offsets,
            "ri_encode.encode_state": encoded,
            "ri_encode.decode_state": decoded,
        }

    def install(self, capture: bool):
        """Replace each listed function in every rotinv module binding it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "rotinv" or n.startswith("rotinv."))]
        hooks = self.hooks(capture)
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"rotinv.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                span_name = f"{layer}.{fn_name}"
                wrapper = self.wrap(span_name, original, hooks.get(span_name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, capture_path, cli_argv = argv[0], argv[1], argv[3:]
    import rotinv.cli

    # perf_counter reads CLOCK_MONOTONIC on Linux, which every process shares,
    # so the parent subtracts its own spawn time from this to get startup time.
    imports_done = time.perf_counter()
    tracer = Tracer()
    tracer.install(capture=capture_path != "-")
    run_cli = tracer.wrap("cli.main", rotinv.cli.main)
    try:
        rc = run_cli(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"imports_done": imports_done, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)
        if capture_path != "-":
            np.savez(capture_path, psi=np.array(tracer.captured["psi"]),
                     decoded=np.array(tracer.captured["decoded"]))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

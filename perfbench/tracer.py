"""Per-layer spans and counts for one traced benchmark round.

The wrappers live here, not in the program: ``install`` replaces each
layer's public function in every e510 module that holds a reference to it
(``singular_search`` imports ``kernel_basis`` by name, ``catalog`` imports
``search_module`` and ``equivariant_family``, ...), and replaces methods on
``VermaModule`` itself.  Spans nest on one stack; a span's self time is its
duration minus the time of the descendant layers it names as excluded.
"""

import importlib
import os
import sys
import time

_MODULES = ("cli", "catalog", "singular_search", "verma", "uminus", "linalg",
            "sl5_reps", "omega_basis")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.spans = {}
        self.counts = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, exclude=(), after=None):
        """fn wrapped in a named span; after(args, kwargs, result) counts."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [exclude, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[1]
                for outer in stack:
                    if name in outer[0]:
                        outer[1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        mods = {m: importlib.import_module("e510." + m) for m in _MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if n == "e510" or n.startswith("e510.")]

        def patch(owner, attr, new):
            old = getattr(owner, attr)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is old:
                        setattr(mod, key, new)
            setattr(owner, attr, new)

        uminus, verma = mods["uminus"], mods["verma"]
        search, catalog = mods["singular_search"], mods["catalog"]
        vm = verma.VermaModule

        def ws_after(args, kwargs, result):
            module, d = args[0], args[1]
            self.count("verma.weight_space.pairs_scanned",
                       uminus.dim_u_minus(d) * module.rep.dim)
            self.count("verma.weight_space.pairs_kept", len(result))

        patch(vm, "weight_space",
              self.span("verma.weight_space", vm.weight_space, after=ws_after))
        for name in ("is_singular", "mult"):
            patch(vm, name, self.span("verma." + name, getattr(vm, name)))
        patch(uminus, "enumerate_monomials",
              self.span("uminus.enumerate_monomials",
                        uminus.enumerate_monomials))

        patch(search, "candidate_weights",
              self.span("singular_search.candidate_weights",
                        search.candidate_weights,
                        after=lambda a, k, r: self.count(
                            "singular_search.candidates", len(r))))
        patch(search, "singular_block",
              self.span("singular_search.singular_block",
                        search.singular_block,
                        exclude=("verma.weight_space", "linalg.kernel_basis"),
                        after=lambda a, k, r: self.count(
                            "singular_search.nonzero_blocks", bool(r[1]))))
        patch(search, "search_module",
              self.span("singular_search.search_module",
                        search.search_module))

        def saved(args, kwargs, result):
            if args[0]:
                self.count("singular_search.checkpoint_bytes",
                           os.path.getsize(args[0]))

        patch(search, "_save_checkpoint",
              self.span("singular_search.save_checkpoint",
                        search._save_checkpoint, after=saved))

        kernel_span = self.span("linalg.kernel_basis",
                                mods["linalg"].kernel_basis)

        def kernel_basis(rows, column_order, entry_cap=None):
            rows = list(rows)
            stored = [r for r in rows if r]
            self.count("linalg.kernel_basis.rows", len(stored))
            self.count("linalg.kernel_basis.cols", len(column_order))
            self.count("linalg.kernel_basis.nnz", sum(map(len, stored)))
            return kernel_span(rows, column_order, entry_cap=entry_cap)

        patch(mods["linalg"], "kernel_basis", kernel_basis)

        sl5 = mods["sl5_reps"]
        # read at the end of the round: cache sizes and irrep cache misses
        self.xd_cache, self.ad_e_cache = verma._XD_CACHE, verma._AD_E_CACHE
        self.order_forms = uminus._order_forms
        self.build_irrep = sl5.build_irrep
        patch(sl5, "build_irrep",
              self.span("sl5_reps.build_irrep", sl5.build_irrep))
        patch(mods["omega_basis"], "equivariant_family",
              self.span("omega_basis.equivariant_family",
                        mods["omega_basis"].equivariant_family))

        patch(catalog, "classification_sweep",
              self.span("catalog.classification_sweep",
                        catalog.classification_sweep,
                        exclude=("singular_search.search_module",)))
        for name in ("compose", "family_morphism", "known_vector"):
            patch(catalog, name,
                  self.span("catalog." + name, getattr(catalog, name)))

        def emitted(args, kwargs, result):
            self.count("cli.report_bytes", os.path.getsize(args[2]))

        patch(mods["cli"], "_emit",
              self.span("cli.emit", mods["cli"]._emit, after=emitted))

    def metrics(self):
        """Per-layer metrics, keyed as in BENCHMARK.json (values unrounded)."""

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def secs(name):
            return self.spans.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            stat = self.spans.get(name, [0, 0.0, 0.0])
            return stat[1] - stat[2]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts.get
        scanned = c("verma.weight_space.pairs_scanned", 0)
        kept = c("verma.weight_space.pairs_kept", 0)
        blocks = calls("singular_search.singular_block")
        return {
            "verma.weight_space.s": secs("verma.weight_space"),
            "verma.weight_space.calls": calls("verma.weight_space"),
            "verma.weight_space.pairs_scanned": scanned,
            "verma.weight_space.pairs_kept": kept,
            "verma.weight_space.keep_ratio": ratio(kept, scanned),
            "uminus.enumerate_monomials.s": secs("uminus.enumerate_monomials"),
            "uminus.enumerate_monomials.calls":
                calls("uminus.enumerate_monomials"),
            "singular_search.candidate_weights.s":
                secs("singular_search.candidate_weights"),
            "singular_search.candidates": c("singular_search.candidates", 0),
            "singular_search.singular_block.s":
                secs("singular_search.singular_block"),
            "singular_search.assemble.self_s":
                self_s("singular_search.singular_block"),
            "singular_search.blocks": blocks,
            "singular_search.block_yield":
                ratio(c("singular_search.nonzero_blocks", 0), blocks),
            "singular_search.search_module.s":
                secs("singular_search.search_module"),
            "singular_search.checkpoint_bytes":
                c("singular_search.checkpoint_bytes", 0),
            "linalg.kernel_basis.s": secs("linalg.kernel_basis"),
            "linalg.kernel_basis.rows": c("linalg.kernel_basis.rows", 0),
            "linalg.kernel_basis.cols": c("linalg.kernel_basis.cols", 0),
            "linalg.kernel_basis.nnz": c("linalg.kernel_basis.nnz", 0),
            "verma.is_singular.s": secs("verma.is_singular"),
            "sl5_reps.build_irrep.s": secs("sl5_reps.build_irrep"),
            "sl5_reps.build_irrep.misses":
                self.build_irrep.cache_info().misses,
            "catalog.classification_sweep.self_s":
                self_s("catalog.classification_sweep"),
            "verma.mult.s": secs("verma.mult"),
            "verma.mult.calls": calls("verma.mult"),
            "catalog.compose.s": secs("catalog.compose"),
            "catalog.compose.calls": calls("catalog.compose"),
            "catalog.family_morphism.s": secs("catalog.family_morphism"),
            "omega_basis.equivariant_family.s":
                secs("omega_basis.equivariant_family"),
            "catalog.known_vector.s": secs("catalog.known_vector"),
            "verma.xd_cache.entries": len(self.xd_cache),
            "verma.ad_e_cache.entries": len(self.ad_e_cache),
            "uminus.order_forms_cache.entries":
                self.order_forms.cache_info().currsize,
            "cli.emit.self_s": self_s("cli.emit"),
            "cli.report_bytes": c("cli.report_bytes", 0),
        }

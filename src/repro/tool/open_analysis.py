"""Open-program analysis: checking libraries without a main (Section 8).

The paper's future work: "we are working on extensions to support
analysis of open programs such as libraries."  This module implements the
natural construction: synthesize a *harness* entry that calls every
exported function with maximally-unconstrained arguments --

* each region-typed parameter gets its own fresh region (children of the
  root, hence pairwise unordered: the conservative assumption about what
  callers may pass);
* each object-pointer parameter gets an object allocated from a fresh
  region of its own;
* scalars get zeros, unknown pointers get null --

and run the standard pipeline from that harness.  A warning then means
"some caller can make this library code inconsistent", which is exactly
the API-design signal of the Figure 12 case study.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.callgraph import ImplicitCallRegistry
from repro.interfaces import RegionInterface
from repro.lang import analyze, parse
from repro.lang.types import CType, FunctionType, PointerType, StructType
from repro.pointer import AnalysisOptions
from repro.tool.regionwiz import RegionWizReport, run_regionwiz
from repro.util.budget import ResourceBudget
from repro.util.errors import InputError

__all__ = ["HARNESS_ENTRY", "build_harness", "analyze_open_program"]

HARNESS_ENTRY = "__open_harness"


def _region_struct_names(sema, interface: RegionInterface) -> Set[str]:
    """Struct tags that denote regions, discovered from the interface
    functions' prototypes (e.g. ``apr_pool_t``, ``region_``)."""
    names: Set[str] = set()

    def collect(ctype: Optional[CType]) -> None:
        # Unwrap pointers to find the underlying struct.
        while isinstance(ctype, PointerType):
            ctype = ctype.target
        if isinstance(ctype, StructType):
            names.add(ctype.name)

    for name in interface.function_names():
        ftype = sema.function_type(name)
        if ftype is None:
            continue
        collect(ftype.ret)
        for param in ftype.params:
            collect(param)
    return names


def _is_region_pointer(ctype: CType, region_structs: Set[str]) -> bool:
    return (
        isinstance(ctype, PointerType)
        and isinstance(ctype.target, StructType)
        and ctype.target.name in region_structs
    )


def build_harness(
    source: str,
    interface: RegionInterface,
    filename: str = "<library>",
    exports: Optional[List[str]] = None,
) -> str:
    """Append a synthetic entry that exercises every exported function."""
    sema = analyze(parse(source, filename))
    region_structs = _region_struct_names(sema, interface)
    is_apr = "apr_pool_create" in interface.creates

    lines: List[str] = ["", f"void {HARNESS_ENTRY}(void) {{"]
    counter = [0]

    def fresh_region(indent: str = "    ") -> str:
        counter[0] += 1
        name = f"__hr{counter[0]}"
        if is_apr:
            lines.append(f"{indent}apr_pool_t *{name};")
            lines.append(f"{indent}apr_pool_create(&{name}, NULL);")
        else:
            lines.append(f"{indent}region {name} = newregion();")
        return name

    alloc_fn = "apr_palloc" if is_apr else "ralloc"

    emitted = 0
    for fname, info in sema.functions.items():
        if exports is not None and fname not in exports:
            continue
        if interface.is_interface_function(fname):
            continue
        if fname.startswith("__"):
            continue
        args: List[str] = []
        skip = False
        for param in info.decl.params:
            ptype = param.type
            if _is_region_pointer(ptype, region_structs):
                args.append(fresh_region())
            elif isinstance(ptype, PointerType) and isinstance(
                ptype.target, FunctionType
            ):
                args.append("NULL")
            elif isinstance(ptype, PointerType):
                pool = fresh_region()
                counter[0] += 1
                obj = f"__ho{counter[0]}"
                lines.append(
                    f"    void *{obj} = {alloc_fn}({pool}, 64);"
                )
                args.append(obj)
            elif ptype.is_integral or ptype.is_void:
                args.append("0")
            elif isinstance(ptype, StructType):
                skip = True  # by-value aggregates: out of the subset
                break
            else:
                args.append("0")
        if skip:
            continue
        lines.append(f"    {fname}({', '.join(args)});")
        emitted += 1

    lines.append("}")
    if emitted == 0:
        raise InputError("no exported functions to harness")
    return source + "\n".join(lines) + "\n"


def analyze_open_program(
    source: str,
    interface: RegionInterface,
    filename: str = "<library>",
    exports: Optional[List[str]] = None,
    options: Optional[AnalysisOptions] = None,
    name: str = "library",
    budget: Optional[ResourceBudget] = None,
    degrade: bool = False,
    refine: bool = False,
    registry: Optional[ImplicitCallRegistry] = None,
) -> RegionWizReport:
    """Run RegionWiz on a library via the synthesized open harness;
    the other arguments mean what they mean to :func:`run_regionwiz`."""
    harnessed = build_harness(source, interface, filename, exports)
    return run_regionwiz(
        harnessed,
        filename=filename,
        interface=interface,
        entry=HARNESS_ENTRY,
        options=options,
        registry=registry,
        name=name,
        refine=refine,
        budget=budget,
        degrade=degrade,
    )

"""Stock rule set of ``repro lint``.

Importing this package registers every rule with
:func:`repro.analysis.framework.register_rule`; the framework's
:func:`~repro.analysis.framework.all_rules` triggers that import, so
user code never needs to import these modules directly.

| id     | module                | invariant                               |
| ------ | --------------------- | --------------------------------------- |
| RPR001 | determinism           | no ambient entropy in the core          |
| RPR002 | ordered_iteration     | set iteration must be sorted            |
| RPR003 | float_accumulation    | fsum/int-wrapped reductions only        |
| RPR005 | dtype_discipline      | index arrays carry explicit dtypes      |
| RPR006 | knob_threading        | config knobs validated/plumbed/doc'd    |
| RPR007 | native_boundary       | ctypes loads behind the fallback helper |

``docs/LINT_RULES.md`` is the narrative reference for all of them.
"""

from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.dtype_discipline import DtypeDisciplineRule
from repro.analysis.rules.float_accumulation import FloatAccumulationRule
from repro.analysis.rules.knob_threading import KnobThreadingRule
from repro.analysis.rules.native_boundary import NativeBoundaryRule
from repro.analysis.rules.ordered_iteration import OrderedIterationRule

__all__ = [
    "DeterminismRule",
    "DtypeDisciplineRule",
    "FloatAccumulationRule",
    "KnobThreadingRule",
    "NativeBoundaryRule",
    "OrderedIterationRule",
]

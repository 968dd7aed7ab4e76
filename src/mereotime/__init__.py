"""Finite-model toolkit for region-based theories of space and time.

Constructs, validates and inter-converts contact algebras, snapshot models
of space and time, dynamic contact algebras and dynamic mereotopological
spaces, certifying the representation and duality theorems on concrete
finite instances.
"""

from .boolean import FiniteBA, Filter, Grill, Ideal, Ultrafilter, filter_sum, separate, ultrafilters
from .contact import (
    AdjacencySpace,
    Clan,
    PrecontactAlgebra,
    Relation,
    canonical_relation,
    check_axioms,
    check_compositional,
    clans,
    clusters,
    contact_from_adjacency,
    factor_by_clanset,
    maximal_clans,
)
from .dca import (
    DCA,
    canonical_standard_dca,
    canonical_time_structure,
    clan_structure,
    correspondence2,
    from_contact_algebra,
    is_trivial,
    standard_dca,
    validate_dca,
    verify_embedding,
)
from .dms import (
    DMSpace,
    FiniteTopSpace,
    classify,
    density_check,
    dual,
    dual_space,
    is_trivial_dms,
    stability_check,
    topological_definability,
    validate_dms,
    verify_representation_topo,
)
from .category import (
    DcaMorphism,
    DmsMorphism,
    compose,
    duality_roundtrip,
    lower,
    naturality,
    raise_,
    validate_dca_morphism,
    validate_dms_morphism,
)
from .snapshot import (
    DMST,
    TimeCondition,
    TimeStructure,
    build_dmst,
    check_time_axiom,
    check_time_condition,
    correspondence_check,
    dynamic_relations,
    is_rich,
    time_axiom_holds,
)

__all__ = [name for name in dir() if not name.startswith("_")]

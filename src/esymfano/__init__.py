"""Exact toolkit for planes on Z(E_{m-1}) and finite-group polynomial invariants."""

from .fields import (
    QQ,
    BudgetExceeded,
    FieldError,
    PrimeField,
    RationalField,
    field_from_descriptor,
)
from .poly import (
    LinearForm,
    Polynomial,
    elem_sym,
    esym,
    poly_eval,
)
from .fano import (
    MembershipVerdict,
    PartitionCertificate,
    PlaneMatrix,
    ZeroPair,
    brute_force_members,
    classify,
    cross_check,
    enumerate_isolated,
    expected_dimension,
    fano_chart_equations,
    is_member_direct,
    matchings,
    reciprocal_relation_space,
    sample_member,
    stratum_dimension,
    verify_certificate,
)
from .invariants import (
    GroupAction,
    close_group,
    generation_check,
    invariant_dim,
    is_invariant,
    orbit_chern,
    orbit_of_form,
    reynolds,
    subalgebra_graded_dims,
    z2_counterexample_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]

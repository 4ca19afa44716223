"""The per-candidate verdict of the Chern-candidate survey, as it was.

A verbatim copy of `_divisibility_verdict` from `acso.obstruct` at the
change that made a candidate record hold a status in place of a
`Verdict`.  The survey now reads the status of q = 0 once per search and
makes a witness only for the verdict a report prints; this copy is the
oracle both are tested against.
"""

from acso.gradedring import RingElement, divide_by
from acso.obstruct import (
    BundleData,
    Verdict,
    _annihilated_by,
    canonical_witness,
)


def _divisibility_verdict(data: BundleData, q: RingElement, rule: str,
                          paired: int | None) -> Verdict:
    # paired is data.pair(q), which the caller computes once
    tail = "" if paired is None else "; q pairs to %d" % paired
    if not q.is_zero:
        solutions = divide_by(4, q)
        rep = solutions[0] if solutions else q
        return Verdict("NonZero", witness=canonical_witness(rep), denominator=4,
                       note="%s: 4o = q is nonzero, so o != 0%s" % (rule, tail))
    orders = data.rings.integral.orders(q.degree)
    if not _annihilated_by(orders, 4):
        return Verdict("Zero", denominator=4,
                       note="%s: q = 0 and no nonzero degree-%d class is killed by 4%s"
                            % (rule, q.degree, tail))
    return Verdict("Inconclusive", denominator=4,
                   note="%s: q = 0 but 4 kills torsion in degree %d%s"
                        % (rule, q.degree, tail))


def record_verdict(data: BundleData, rule: str, record) -> Verdict:
    """The verdict the survey built for a candidate record before."""
    return _divisibility_verdict(data, record.q, rule, record.pairing)

"""The CLI report-identity set (tests/identity_set.py) at its pinned
digests.

Every report of the set is seeded, so its digests change only when a
report does.  A change that alters a report updates the pin below and
says why in CHANGES.md.
"""

import identity_set

PINNED = {
    "families": (18, "a8aa01d8ed7d3d4578c13787740f4ac8c2739423de59449b6cb700a5339e24ec"),
    "dim": (90, "381561a027e8566726741edaee4176977fff55a3a782f08df3692974dcc00a50"),
    "run": (1512, "15773fcfdc65944201432630cb46f80fd19574b33ac2262099fd60da156a4e1d"),
    "duel": (378, "173629f440d51f42fa90f9b1341a48b114235af76595200437cd200757bc3294"),
    "boost": (15, "29a036f681f7129b0265513ad610708254378d61b3e4902a06e00cb97197da64"),
    "boost-alpha1": (15, "6e788159b4754e599e2f2582ac1202c7a401cebf1c270ad8b3794ed2b6096d8a"),
    "all": (2028, "fd6bc18fa10aed2b8858886582dc01ad320a6ad96e811c58dcc10bdc51580591"),
}


def test_report_identity_set_is_pinned():
    assert identity_set.digests(identity_set.record()) == PINNED

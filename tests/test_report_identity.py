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
    "boost": (15, "a19f1fcf61c3b160555515e710981a7d31691dddaf769cdb5fcb906b29f9fd96"),
    "boost-alpha1": (15, "bc2932c4b12ee075aab6fab0717975857c0f2280bf690bc7038431eb69e8c4f1"),
    "all": (2028, "f863f2e1b09420948358275ba2c6b37040a723d2221781c4aa7b854bfc8bb057"),
}


def test_report_identity_set_is_pinned():
    assert identity_set.digests(identity_set.record()) == PINNED

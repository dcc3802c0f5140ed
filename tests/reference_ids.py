"""Ids and facts of the reference corpus that ``normgraph fixture`` writes.

The corpus (``src/normgraph/fixtures/``) traces Article 6 of the 1988
Brazilian constitution through four amendments; the tests name its works
and actions through these constants.
"""

NORM_URN = "urn:lex:br:federal:constituicao:1988-10-05;1988"

ART6 = f"{NORM_URN}!art6"
ART6_CPT = f"{NORM_URN}!art6_cpt"
ART7 = f"{NORM_URN}!art7"
ART7_CPT = f"{NORM_URN}!art7_cpt"
CAP2 = f"{NORM_URN}!tit2_cap2"
TIT2 = f"{NORM_URN}!tit2"

RIGHTS_1999 = (
    "education", "health", "work", "leisure", "security", "social security",
    "protection of motherhood and childhood", "assistance to the destitute",
)

# Action ids are derived by ingestion from instrument short titles.
ACT_ENACT = "act:cf-1988:enactment"
ACT_CA26 = "act:ca-26-2000:art6-cpt:2000-02-15"
ACT_CA64 = "act:ca-64-2010:art6-cpt:2010-02-04"
ACT_CA72 = "act:ca-72-2013:art7-cpt:2013-04-02"
ACT_CA90 = "act:ca-90-2015:art6-cpt:2015-09-15"

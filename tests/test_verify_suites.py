"""Every `mdswe verify` check, one pytest case each.

`verify.SUITES` is the one registry of the package's cross-route
invariants: closed forms against exhaustive enumeration, the identities,
MacWilliams duality, property A, the averaged binary image and the
decoder curves against Monte-Carlo.  Each suite runs here once per seed,
in-process, through `verify._run_suite` (the call a worker of
`mdswe verify` makes), and each check it returns is one case, such as
``[7-gf:inverses-exhaustive]``; a failing case shows the check's detail.
Seeds 0 and 5 make the duality suite draw again for a code whose dual is
beyond the enumeration budget; seed 7 is the CLI default.

The unit tests keep only what no check here covers.
"""

import pytest

from mdswe import verify

SEEDS = (0, 5, 7)

# Every check, in the order `mdswe verify --suite all` prints them.  A check
# that is added, dropped or renamed must be added, dropped or renamed here.
CHECKS = (
    "gf:inverses-exhaustive",
    "gf:associativity-distributivity",
    "gf:multiplicative-group-cyclic",
    "gf:table-path-agrees-with-raw",
    "codes:enumeration-total-q^k",
    "codes:rs-minimum-distance-singleton",
    "codes:dual-orthogonal-complement",
    "codes:pwe-invariant-within-block-permutation",
    "codes:rs-eval-order-invariance",
    "oracle:direct==product==brute-force",
    "identities:psi-convolution",
    "identities:psi-subset-weighted",
    "identities:s-coordinate-weight-share",
    "identities:iowe-marginal-is-E(h)",
    "identities:pwgf-merge-blocks",
    "identities:profile-permutation-symmetry",
    "identities:enumerator-total-q^k",
    "binary:substitution-poly-normalized",
    "binary:iowe-closed-form==substitution",
    "binary:bit-weight-share-identity",
    "binary:pwgf-collapse-matches-wgf",
    "duality:macwilliams==brute-force-dual",
    "duality:classical-wgf-transform",
    "duality:mds-dual-closed-form",
    "duality:property-a-classification",
    "duality:property-a-dual-agreement",
    "errorprob:distance-distribution-total-1",
    "errorprob:sphere-table==spectrum",
    "errorprob:monte-carlo-agreement",
    "errorprob:user-iowe-marginal-is-E(h)",
    "errorprob:unconditional-sep-user-independent",
    "errorprob:sep<=cep-pointwise",
    "errorprob:conditional-ordering-(1,1)<(0,1)<(0,0)",
    "errorprob:curves-in-range-and-monotone",
)


@pytest.fixture(scope="module")
def suite_results():
    """suite_results(suite, seed): the suite's checks, run once per module."""
    cache = {}

    def run(suite, seed):
        if (suite, seed) not in cache:
            cache[suite, seed] = verify._run_suite(suite, seed)
        return cache[suite, seed]

    return run


@pytest.mark.parametrize("seed, check", [(seed, check) for seed in SEEDS for check in CHECKS])
def test_check_passes(suite_results, seed, check):
    suite = check.split(":")[0]
    results = {result.name: result for result in suite_results(suite, seed)}
    assert check in results, f"suite {suite} at seed {seed} returned {list(results.values())}"
    assert results[check].passed, results[check].detail


@pytest.mark.parametrize("seed", SEEDS)
def test_suites_return_the_pinned_checks(suite_results, seed):
    assert [result.name for suite in verify.SUITES
            for result in suite_results(suite, seed)] == list(CHECKS)


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_compares_every_table(suite_results, seed):
    [result] = suite_results("oracle", seed)
    assert result.detail == "98 codes, 1960 tables"


# The decoder checks' details at seed 7, as `mdswe verify` prints them: a
# change to the Monte-Carlo oracle that moves any draw or decoding decision
# moves a sigma here.
DECODER_DETAILS_AT_SEED_7 = {
    "errorprob:sphere-table==spectrum": "551369 sphere words",
    "errorprob:monte-carlo-agreement": (
        "p=0.05: cep +0.3 sigma, sep +0.7 sigma; p=0.1: cep -0.8 sigma, sep -0.4 sigma; "
        "p=0.2: cep -0.1 sigma, sep +0.3 sigma"),
}


def test_decoder_details_are_pinned(suite_results):
    details = {result.name: result.detail for result in suite_results("errorprob", 7)}
    assert {name: details[name] for name in DECODER_DETAILS_AT_SEED_7} \
        == DECODER_DETAILS_AT_SEED_7

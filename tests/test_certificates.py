"""Verdict certificates, pinned byte for byte.

Each module below is paired with the ``verdict_to_dict`` JSON of its
semistability verdict, recorded before the certificate was rebuilt on
plain ints (``mu`` from the first nonzero block, each containment
checked once).  The pins cover unstable and strictly semistable modules
over F_2, F_3, F_5 and F_7, both signs, the trivial and the swap
involution, a certificate with all three pieces, the zero module (weight
minus infinity), the README fixture over QQ and x^2 - 4y^2, which has
the totally isotropic line (2, 1) but still gives no_destabilizer_found.
"""

import pytest

from twistmod.hilbert import mu
from twistmod.serialize import parse_module_file, to_json, verdict_to_dict
from twistmod.stability import semistability_verdict

PINNED_VERDICTS = {
    "fp2-plus-trivial-n4-unstable": (
        (
            '{"field":"fp:2","sign":"+1","dim_h":4,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["0","0","0","0"],["0","0","1","1"],["0","1","0","1"],["0","1","1",'
            '"0"]]]}'
        ),
        (
            '{"status":"unstable","certificate":{"V":[["1","0","0","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0","0"]],"weight":3},{"basis":[["0","1",'
            '"0","0"],["0","0","1","0"],["0","0","0","1"]],"weight":-1}]}},'
            '"provenance":{"kind":"exhaustive","primes":[]},"mu":-2}'
        ),
    ),
    "fp2-minus-swap-n3-strictly_semistable": (
        (
            '{"field":"fp:2","sign":"-1","dim_h":3,"w":{"dim":2,"involution":[["0","1"],["1",'
            '"0"]]},"forms":[[["1","1","0"],["0","0","1"],["0","0","0"]],[["1","0","0"],["1",'
            '"0","0"],["0","1","0"]]]}'
        ),
        (
            '{"status":"strictly_semistable","certificate":{"V":[["1","1","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","1","0"]],"weight":3},{"basis":[["1","0",'
            '"1"]],"weight":0},{"basis":[["1","0","0"]],"weight":-3}]}},'
            '"provenance":{"kind":"exhaustive","primes":[]},"mu":0}'
        ),
    ),
    "fp3-minus-trivial-n4-unstable": (
        (
            '{"field":"fp:3","sign":"-1","dim_h":4,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["0","0","0","0"],["0","0","1","1"],["0","2","0","0"],["0","2","0",'
            '"0"]]]}'
        ),
        (
            '{"status":"unstable","certificate":{"V":[["1","0","0","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0","0"]],"weight":3},{"basis":[["0","1",'
            '"0","0"],["0","0","1","0"],["0","0","0","1"]],"weight":-1}]}},'
            '"provenance":{"kind":"exhaustive","primes":[]},"mu":-2}'
        ),
    ),
    "fp3-plus-swap-n3-strictly_semistable": (
        (
            '{"field":"fp:3","sign":"+1","dim_h":3,"w":{"dim":2,"involution":[["0","1"],["1",'
            '"0"]]},"forms":[[["0","0","0"],["0","1","0"],["2","0","0"]],[["0","0","2"],["0",'
            '"1","0"],["0","0","0"]]]}'
        ),
        (
            '{"status":"strictly_semistable","certificate":{"V":[["1","0","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":3},{"basis":[["0","1",'
            '"0"]],"weight":0},{"basis":[["0","0","1"]],"weight":-3}]}},'
            '"provenance":{"kind":"exhaustive","primes":[]},"mu":0}'
        ),
    ),
    "fp3-plus-trivial-n4-strictly_semistable": (
        (
            '{"field":"fp:3","sign":"+1","dim_h":4,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["1","2","0","1"],["2","0","0","1"],["0","0","0","2"],["1","1","2",'
            '"0"]]]}'
        ),
        (
            '{"status":"strictly_semistable","certificate":{"V":[["1","0","0","1"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0","1"]],"weight":4},{"basis":[["0","1",'
            '"0","0"],["0","0","1","1"]],"weight":0},{"basis":[["1","0","0","0"]],'
            '"weight":-4}]}},"provenance":{"kind":"exhaustive","primes":[]},"mu":0}'
        ),
    ),
    "fp5-plus-trivial-n3-strictly_semistable": (
        (
            '{"field":"fp:5","sign":"+1","dim_h":3,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["0","4","3"],["4","0","3"],["3","3","1"]]]}'
        ),
        (
            '{"status":"strictly_semistable","certificate":{"V":[["1","0","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":3},{"basis":[["0","1",'
            '"2"]],"weight":0},{"basis":[["0","1","0"]],"weight":-3}]}},'
            '"provenance":{"kind":"exhaustive","primes":[]},"mu":0}'
        ),
    ),
    "fp5-minus-swap-n4-unstable": (
        (
            '{"field":"fp:5","sign":"-1","dim_h":4,"w":{"dim":2,"involution":[["0","1"],["1",'
            '"0"]]},"forms":[[["2","0","4","3"],["1","1","0","0"],["4","4","0","0"],["4","0",'
            '"1","0"]],[["3","4","1","1"],["0","4","1","0"],["1","0","0","4"],["2","0","0",'
            '"0"]]]}'
        ),
        (
            '{"status":"unstable","certificate":{"V":[["1","0","2","3"],["0","1","1","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","2","3"],["0","1","1","0"]],"weight":3},'
            '{"basis":[["1","0","0","1"]],"weight":-1},{"basis":[["1","0","0","0"]],'
            '"weight":-5}]}},"provenance":{"kind":"exhaustive","primes":[]},"mu":-2}'
        ),
    ),
    "fp7-minus-trivial-n4-strictly_semistable": (
        (
            '{"field":"fp:7","sign":"-1","dim_h":4,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["0","0","0","3"],["0","0","6","3"],["0","1","0","0"],["4","4","0",'
            '"0"]]]}'
        ),
        (
            '{"status":"strictly_semistable","certificate":{"V":[["1","0","0","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0","0"]],"weight":4},{"basis":[["0","1",'
            '"0","0"],["0","0","1","0"]],"weight":0},{"basis":[["0","0","0","1"]],'
            '"weight":-4}]}},"provenance":{"kind":"exhaustive","primes":[]},"mu":0}'
        ),
    ),
    "fp7-plus-swap-n3-unstable": (
        (
            '{"field":"fp:7","sign":"+1","dim_h":3,"w":{"dim":2,"involution":[["0","1"],["1",'
            '"0"]]},"forms":[[["2","3","0"],["5","6","4"],["0","6","5"]],[["2","5","0"],["3",'
            '"6","6"],["0","4","5"]]]}'
        ),
        (
            '{"status":"unstable","certificate":{"V":[["1","0","1"],["0","1","1"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","1"],["0","1","1"]],"weight":2},'
            '{"basis":[["1","0","0"]],"weight":-4}]}},"provenance":{"kind":"exhaustive",'
            '"primes":[]},"mu":-2}'
        ),
    ),
    "fp7-minus-swap-n3-unstable": (
        (
            '{"field":"fp:7","sign":"-1","dim_h":3,"w":{"dim":2,"involution":[["0","1"],["1",'
            '"0"]]},"forms":[[["0","0","0"],["5","0","0"],["0","1","0"]],[["0","2","0"],["0",'
            '"0","6"],["0","0","0"]]]}'
        ),
        (
            '{"status":"unstable","certificate":{"V":[["1","0","0"],["0","0","1"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0"],["0","0","1"]],"weight":2},'
            '{"basis":[["0","1","0"]],"weight":-4}]}},"provenance":{"kind":"exhaustive",'
            '"primes":[]},"mu":-2}'
        ),
    ),
    "qq-readme-fixture-strictly_semistable": (
        (
            '{"field":"rational","sign":"+1","dim_h":3,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["0","0","1"],["0","1","1"],["1","1","1"]]]}'
        ),
        (
            '{"status":"strictly_semistable","certificate":{"V":[["1","0","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0","0"]],"weight":3},{"basis":[["0","1",'
            '"0"]],"weight":0},{"basis":[["0","0","1"]],"weight":-3}]}},'
            '"provenance":{"kind":"heuristic","primes":[2,3,5,7,11,13]},"mu":0}'
        ),
    ),
    "qq-x2-minus-4y2-no_destabilizer_found": (
        (
            '{"field":"rational","sign":"+1","dim_h":2,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["1","0"],["0","-4"]]]}'
        ),
        (
            '{"status":"no_destabilizer_found","provenance":{"kind":"heuristic","primes":[2,'
            '3,5,7,11,13]},"mu":null}'
        ),
    ),
    "fp3-zero-module-unstable": (
        (
            '{"field":"fp:3","sign":"+1","dim_h":2,"w":{"dim":1,"involution":[["1"]]},'
            '"forms":[[["0","0"],["0","0"]]]}'
        ),
        (
            '{"status":"unstable","certificate":{"V":[["1","0"]],'
            '"lambda":{"pieces":[{"basis":[["1","0"]],"weight":1},{"basis":[["0","1"]],'
            '"weight":-1}]}},"provenance":{"kind":"exhaustive","primes":[]},"mu":"-infinity"}'
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERDICTS))
def test_verdict_certificates_are_pinned(name):
    module_json, verdict_json = PINNED_VERDICTS[name]
    q = parse_module_file(module_json).module
    verdict = semistability_verdict(q)
    assert to_json(verdict_to_dict(verdict)) == verdict_json
    if verdict.certificate is not None:
        assert mu(verdict.certificate[1], q) == verdict.mu_value

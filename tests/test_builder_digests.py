"""The builders' tables, pinned byte for byte.

Each entry is the sha256 of repr((n, T, Γ, mu, name)) of one builder
output, with T and Γ spelled out field by field; the digests were taken
before plain semirings became binary ``NaryGammaSemiring``s, so a builder
whose tables or name drift fails here.
"""

import hashlib

from ngamma.core import (
    FiniteAddMonoid, boolean_semiring, bundled_semirings, f2_semiring, gamma_scaled_z4,
    make_endomorphism_family, make_matrix_family, ternary_from_semiring,
    truncated_nat_semiring, truncated_polynomial, upper_triangular, zmod_semiring,
)

BASES = {
    "boolean": boolean_semiring, "f2": f2_semiring, "z3": lambda: zmod_semiring(3),
    "z4": lambda: zmod_semiring(4), "z6": lambda: zmod_semiring(6),
    "nat-cap2": truncated_nat_semiring, "f2[x]/x^2": lambda: truncated_polynomial(2, 2),
    "f3[x]/x^2": lambda: truncated_polynomial(3, 2),
    "f2[x]/x^3": lambda: truncated_polynomial(2, 3),
    "t2(f2)": lambda: upper_triangular(f2_semiring(), 2),
}
MONOIDS = {
    "k4": FiniteAddMonoid(4, tuple(a ^ b for a in range(4) for b in range(4))),
    "z3": FiniteAddMonoid(3, tuple((a + b) % 3 for a in range(3) for b in range(3))),
    "boolean": FiniteAddMonoid(2, (0, 1, 1, 1)),
}
DIGESTS = {
    "boolean^2": "8be4672d72dc8d06b00b687d4a6fe4d540e9e04fca0d3d6a3311a05d2e7d5993",
    "boolean^3": "bc04605cee9d39cd2df03ab39d887c6bb38bb243df2bb90700bcd570cf273d89",
    "f2^2": "cc2fd8a03a38db75ceb3aa2660779f8cd285f2088a18f0327abacbf37dc0bfd3",
    "f2^3": "72d6787737a8963bbb094d5f8619826f9e847867ac210b69ed754c507c321127",
    "z3^2": "a17727a1ec6b8ea650dccb1c24a386735d73d6c265e1978b6aeef1fbebe77b23",
    "z3^3": "b123990092abcc6ef7e38641f09f777190afcdc7193e692ebd0e72c1c1cc43e0",
    "z4^2": "ed4686ae9d07ae51d4b3c705811667d083e73140bfd1367c781cd7abc43616d6",
    "z4^3": "45dd86269a1bce4589efe789044938c3ca6d6fb83832e69e397fc87e6a01cc33",
    "z6^2": "90623f378b8e64a42bca1bb136c38bd75d43e727b10a61c914adbc36682b23e5",
    "z6^3": "3bf1d9c900e3eb86a380d1b1fe689fea2b3c285d47035c845511b7e4f0b3aeef",
    "nat-cap2^2": "7c170d2389766515ab31e4f58e1b70151e21d7d61923851a24ba54815ba67883",
    "nat-cap2^3": "1b0d622f477871606c22adb5da02a1e0a13aa1d9a2b110a8548b6e78fda2e52f",
    "f2[x]/x^2^2": "94fb931275f8c8700669492d60960a61abfd23447878cf67b6349b4946b370bf",
    "f2[x]/x^2^3": "0b4ed2aa9415f7737b2248db17b16c03f2f15b1959fa906ebd4b72308a5cafde",
    "f3[x]/x^2^2": "856cac8c8f5724d6618e1dd1b02b91b2eeeef697a518dd203f60d148c52d2e58",
    "f3[x]/x^2^3": "a6fa958ebd41c885296d26a9ce853341ac858fa310566816aadf3ef421bab0ee",
    "f2[x]/x^3^2": "aeb99a23152b39ff73f44fc06c8665fc31778d33b3240011a30502ca5a9b0a93",
    "f2[x]/x^3^3": "0b69b33af6b696b02de87a422acbc687b35938530508e3248f2105e9183c06db",
    "t2(f2)^2": "f817cda76667511cfa17c9d1a6f6c4591f763157fe0b28d878627a35d1c070dd",
    "t2(f2)^3": "df09457424a84914f15e5fb8b132d07fed8f969bb1f9191bcb5b64116cd2c9b6",
    "mat1(f2)^2": "18251a7f81769168a6839c8b4d3ecb49b503bf808aff356702e811c92faea193",
    "mat1(f2)^3": "eec73690d27a6456eea087c0b17ca8062ff57a82615ada21cf55c1a4aa65531d",
    "mat1(boolean)^2": "c55a444b4b6b2fbff7bbcc2bd7b44ae15721ea0d0a9ab9ecc37c4eb2d836ec30",
    "mat1(boolean)^3": "e674dbbdb1ac6b5ca9a78866238d5cfaac1e696307bcd263ae9348ae14ec7fb6",
    "mat1(z3)^2": "8d3d6e31a180c70390abb31ba57f7b23c1ddea16439ed007b457e249016b8ce3",
    "mat1(z3)^3": "79ca3691cf86e84a08165f54cee5e2c130ec4ec9aecd08d089e11078a7357488",
    "mat1(z4)^2": "1dc9552a0e1d12cedeb33c6eac1fc44133b463b280794d106b9ef0b7600ee1b2",
    "mat1(z4)^3": "00da273b5c8f43871aaaf92eba98445e4f126a8af6f0b37417c529ca0a5ba38f",
    "mat1(z6)^2": "26ba5ac4036b6e6e6de4d578a54d02ba95e63706b561e2e1ecfae60da3c2eeaa",
    "mat1(z6)^3": "39cdd3af89d51e80f755454c32682b8597cf420bd7c6568be801c8dddb363bcd",
    "mat1(nat-cap2)^2": "d2745e6f20129f3d61bd542fabc86d742496265ff432ab8154f2fc4e5bd27368",
    "mat1(nat-cap2)^3": "3f74c3d82467179e277219734d813c350b0805dd44816616ebf541ae6ef2c106",
    "mat2(f2)^2": "737e2f301ff7844acbb4998fcd31091fe6a4e479264f50a35240608b52450ff7",
    "mat2(f2)^3": "4d720352face4c170d8742a7f881783a3c158dd5ab0c87ed71db3db9655ace20",
    "mat2(boolean)^2": "d97a5655d6fb78a33b8739bb418791bf243fb202fdb5ca08a2dd3710adddbebc",
    "mat2(boolean)^3": "d800b3c568dfad67164108a0d532f7699a362bfba60412f97bdc143be9747aeb",
    "mat2(f2)^4": "cb43cbfd2e7e8efb67fcc6ae039a7785ac505347025667cb2100fcf758835148",
    "gamma_scaled_z4": "98ba11168d7df08e7788f083b9deb42f28b3d5bc1df4b7940cf44ee59bf4c644",
    "end(k4)^2": "02492af565b1525b0a89e10fa7f3e55ed08565a9ebfec1d47d4a8a9379b46e3e",
    "end(k4)^3": "3c0d0fc36a32ad780bcdd9cdb59c0832d79510956bfb53bb64910a916b5d67ad",
    "end(z3)^2": "5c1ef172604ca121adf26b762cdfe2d2e96d7936bcba838a2a232905afea3341",
    "end(z3)^3": "d5928db4d69cb6dcb876204ad55c85fa699fba83df157411d02dc8d44963c665",
    "end(boolean)^2": "315a84c89a82f11a8a65226a60d68e873ef6a5685e3c462b73d054eaf6eacc45",
    "end(boolean)^3": "22e3b47ff59d1e52c1cccc30e6aff2ba85f97e6091c269d4a1eeb1b7abd65aff",
    "f2_ternary": "dc97eb3e67925e29cddb9ea45736687ce65cc121623faac02e750e2ccd22d55c",
    "boolean_ternary": "6bdf451f4bdafa07d52d2fec84bb87b029674a893cddd34133829a23582fcfad",
    "z4_ternary": "c62bf72454486c130f140554264671a671b302aad9bde04f1bcd08964915f5b2",
}


def _outputs():
    out = {}
    for name, build in BASES.items():
        out[f"{name}^2"] = build()
        out[f"{name}^3"] = ternary_from_semiring(build())
    for m, names, arities in ((1, ("f2", "boolean", "z3", "z4", "z6", "nat-cap2"), (2, 3)),
                              (2, ("f2", "boolean"), (2, 3)), (2, ("f2",), (4,))):
        out.update({f"mat{m}({name})^{arity}": make_matrix_family(BASES[name](), m, arity)
                    for name in names for arity in arities})
    out["gamma_scaled_z4"] = gamma_scaled_z4()
    out.update({f"end({name})^{arity}": make_endomorphism_family(monoid, arity)
                for name, monoid in MONOIDS.items() for arity in (2, 3)})
    return {**out, **bundled_semirings()}


def test_builder_outputs_are_byte_identical():
    outputs = _outputs()
    assert list(outputs) == list(DIGESTS) and len(outputs) == 47
    for name, s in outputs.items():
        blob = repr((s.n, s.T.size, s.T.add_table, s.T.zero, s.gamma.size, s.gamma.add_table,
                     s.gamma.has_zero, s.gamma.zero, s.mu_table, s.name))
        assert hashlib.sha256(blob.encode()).hexdigest() == DIGESTS[name], name

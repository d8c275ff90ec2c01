"""Jet paths that no CLI command enters print what they printed when their
digests were recorded.

``ProlongedSystem`` keeps its rows in echelon form, and ``new_equations()``
back-substitutes them on demand.  No CLI command reaches ``new_equations()``
(it runs only when ``complete_to_involution`` prolongs past a failed Cartan
test), so the benchmark's output digests do not see it.  These digests were
recorded while ``prolong_system`` still ran a full Gauss-Jordan elimination.
The Lagrangian involution log was added later, when the expression operators
began to cancel only between the factors of different operands.  That cut the
completion from about 50 s to under 1 s of CPU time; the slower code gives the
same log.  A change that means to alter one records the new digest here and
says why in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from cartaneq.jets import JetError, complete_to_involution, encode_gstructure, prolong_system

from genutil import corpus_problem, drawn_problem


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _problem(name: str):
    return drawn_problem(int(name[5:])) if name.startswith("draw-") else corpus_problem(name)


# sha256 of the solved order-2 equations of the encoded problem, one
# "jet = right side" line each, in principal-derivative order
NEW_EQUATIONS = {
    "flat_gl2": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "flat_identity": "54f5f63b7da0206b4cba831ffe247e28bb5a875afbd210b73d61edc5806a193e",
    "lagrangian": "ac448360571b36a1f00604294f1ba0dfcbd68393858da194f6aff5e13d52db2e",
    "toy_diag": "a5cc69831c69a35307d71867a5485ddebdb85464ec3f010e43f564666544840a",
    "toy_genuine": "e1ee72121bf9c7376f9304a2db55a370525c8d958cbeac99320ffb2e4359953b",
    "draw-00": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "draw-01": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "draw-02": "b56826a0d5354982197fb881b4960e7878e90bf7681e504b79a70da3be0d3bbe",
    "draw-03": "6dac2bef0618a849d1117c528df11a43c5f32fd6632b39f45f5e4a00f21f3ff1",
    "draw-04": "029e5f381867d9d207928e2f1d69799d01ad89af0231e1c002dbc0eb15562272",
    "draw-05": "a485072939ce349c545c168fbc4148fb5e122898b85d83129aefd5deacebfd2c",
    "draw-06": "31b3ab9c8dc4a5fa38f1d8c0293674669be3d05ade33c408a701525577d3cc84",
    "draw-07": "9d0d8989ff0100aa848a44c5059089d46d012e5c7089da0f755e65e99fab23cd",
    "draw-08": "5db332e66a180bb8e6d491f1dd91be6dee2515eec89b7c5706dd8c235441d4c3",
    "draw-09": "7a8e2c357b84ca25d1fc3921e03780fbe7df129c82077877c4901882e1bc1f7b",
    "draw-10": "6a1f6a2601ba6cdbf6aa92f9ea6080407788a10b255a6a2d4e138301e6950e8f",
    "draw-11": "502a7250bce94bf3f4640714913ede854e0b8d9563fe31982b43628d0bae3c5e",
    "draw-12": "75e2120ad1a8e2aa38f26ba57f95d4a26557196dda2ff6db3129ca6f166b8391",
    "draw-13": "cb39c32d9a7da4291ab9e892d85d1e995812edd31684d2b7ce46928024f09f52",
    "draw-14": "1f0472ce6be0066a7cc009a1c3fe3c8bd528bbbf16a21af37b9894b5cc54079d",
    "draw-15": "c509e82f1d5fdeb94622efee884e86770213bbe39fe55367ff40544b85a1b0a6",
    "draw-16": "2614cda429b6720703acacf1f5a33f292e0b297f940a57adafe629cd96fb7284",
    "draw-17": "0678d7408c7413c1795f00386537b1d140a622301a8bf71a079a5ce46656be9f",
    "draw-18": "f1982c29d776fc0afc541dd206541549b921ca01ac83e1196e84e7e3078856c6",
    "draw-19": "5c951ec2d998040cdc56c81c2e70605788f5a76f1aab5e28e906ebc4e88e6459",
    "draw-20": "b49a5174211bd6a6fa601fb884fa79985dc5bb61d9e1adf83028d4d25e6f1fa5",
    "draw-21": "c7482612b16ba681eed43c06e9cdef7e2da481b1f0524c441dfe1b5013b4ec35",
    "draw-22": "e60e4ab1bcb744846009bc31f098fa6c57e39b05e0a7626d48253d335a0f6884",
    "draw-23": "a39e84064532943e5ff0813164910d219300333d835e841cb293fba09ef5c50a",
    "draw-24": "37fc2df9c888f577e9a0cd5c62703949ccb39d0dadd07a64c01cc91df7315104",
    "draw-25": "f1982c29d776fc0afc541dd206541549b921ca01ac83e1196e84e7e3078856c6",
    "draw-26": "3bcb4a42388f0b215190d61270f2a45a3e313779fd00447ea23cc539159ba57d",
    "draw-27": "95958917fc1012ff3382df118f4a6ed9072410cb2c6308e697965accdca0f4cb",
    "draw-28": "d4b3575998909680d6f65cf034fd703181141598ba86b55b18edcbe575a14a89",
    "draw-29": "125944b374a020fd384528d9d7c13e0cbc9e658383654a09bc184c1bec467ab0",
    "draw-30": "bf015599e96b801b8ffa6b9a20acab298a071d243c2cfbb747090ded2974a9ea",
    "draw-31": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "draw-32": "1f0472ce6be0066a7cc009a1c3fe3c8bd528bbbf16a21af37b9894b5cc54079d",
    "draw-33": "125944b374a020fd384528d9d7c13e0cbc9e658383654a09bc184c1bec467ab0",
    "draw-34": "49b656290d9dd5b2ba747b07d1affd626a248f9ae395e401d91c6d8fb724706c",
    "draw-35": "cbe0e87939fec1d2567c3f584bb0745d6f44437b0e40ba6b27571dc7e0e0fdbf",
    "draw-36": "1f0472ce6be0066a7cc009a1c3fe3c8bd528bbbf16a21af37b9894b5cc54079d",
    "draw-37": "a49153876469b9389b271bf7768a422cc663ba7a9ad2c50e7dd1da1cbcee7024",
    "draw-38": "d2213d06de6b2d5a42a73282b5925d7ee5c5c47741d2acc71309f03379079686",
    "draw-39": "0e00c8e14528a186ba8a7eaff807fc5cc3877069accb9451b7a09d0ec39ae129",
    "draw-40": "d5a4651fa2463fc66775c20224b7ad7f0b046ee7e9c04f0427714f547adf77c5",
    "draw-41": "6dac2bef0618a849d1117c528df11a43c5f32fd6632b39f45f5e4a00f21f3ff1",
    "draw-42": "1975a6de2b54d9fe44b73508bbda9cfb6f9a003446ae99f5ec322e7979506379",
    "draw-43": "0db2a92fecc6b45707dbfcb35283d084954000604bbbd0915b58ec72d9514c43",
    "draw-44": "98c74e476eb50f712b53af9a95270309d784a20682bb5f1585b2c6eb21a2f818",
    "draw-45": "889d33c1c603876d4df93e48d794df6d50c3f37d79697253e788c2ee51f56bfc",
    "draw-46": "1f0472ce6be0066a7cc009a1c3fe3c8bd528bbbf16a21af37b9894b5cc54079d",
    "draw-47": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "draw-48": "65cf39ca83996bb28fed16910a9f0fd5988113c9ed194e5716712f07356c59c2",
    "draw-49": "1f0472ce6be0066a7cc009a1c3fe3c8bd528bbbf16a21af37b9894b5cc54079d",
}

# sha256 of the JSON log of complete_to_involution(encoded problem, Random(0), cap=5),
# or, for a problem the completion refuses, the error's type and the sha256 of
# its message; the draws were recorded while complete_to_order still restarted
# its scan after every adjoined equation
INVOLUTION_LOGS = {
    "flat_gl2": "749019ef054214b072d84f4b082b6be126d162f26afbf4e3e95d4a7065c09b32",
    "lagrangian": "8d7761d58941688fc1d2de87b5d0c33580ed3492df85f533a3cedc713e0d3d0d",
    "toy_diag": "c1bf79687b9f7eef24acff67aa208a53763914c7eaaa0d4031beaa70880351fc",
    "toy_genuine": "3767c033e8e5d566cf9cc91f8874b973c5228baca2d0e434486bac42e7e43600",
    "draw-00": "749019ef054214b072d84f4b082b6be126d162f26afbf4e3e95d4a7065c09b32",
    "draw-01": "749019ef054214b072d84f4b082b6be126d162f26afbf4e3e95d4a7065c09b32",
    "draw-02": "a4d222b6753801e0523a5d4856502dd240a99c4e1ca304ef51c42ac92879670b",
    "draw-03": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-04": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-05": "JetError bb66c66ec966f777c686f9d268957406d9d243647ee5d4ae755313ae22d91824",
    "draw-06": "a1ba64b3a75ccbaea92acaa7810b69574204ef2e8ad5e8f730b60bacb9bccd60",
    "draw-07": "a4d222b6753801e0523a5d4856502dd240a99c4e1ca304ef51c42ac92879670b",
    "draw-08": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-09": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-10": "JetError 56ab85d8fd6955cb065cc9b001885ff8444814afb9efbf946017c57373da6632",
    "draw-11": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-12": "JetError 40ec999f624a54d8e3963682af82d7a83a4e00e39b7b146b3ad1fc6800839eec",
    "draw-13": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-14": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-15": "a4d222b6753801e0523a5d4856502dd240a99c4e1ca304ef51c42ac92879670b",
    "draw-16": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-17": "JetError dc582171afbe14ff6e2ef5a8fbb480ecf020095da0a7f932758555df08a1e655",
    "draw-18": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-19": "734f1d23dc93dc08d30adee8c57152f9d0946bfa664a5cd3b011de7d529d997c",
    "draw-20": "81efa892b6f358dd4158ce143320c95845f2fa16d40a04a8396e6f09d0961ff4",
    "draw-21": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-22": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-23": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-24": "JetError 150e5a4cdf60a24603ba318a0a597f8d75f4674dcd4f83ad2de6ca51cf349afd",
    "draw-25": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-26": "6555a364d5a9a2113894b1dba4ecd131605fb12280f79808ea6d1c7e49f94553",
    "draw-27": "JetError c806a9dc3998525280af2cbe1fe074755aa98a78e104efbaf8ac5885366ca700",
    "draw-28": "a4d222b6753801e0523a5d4856502dd240a99c4e1ca304ef51c42ac92879670b",
    "draw-29": "11b2b7a32de4a8644e6e38762d037333a74b4cdb9c4ae812c63b30e6c983101b",
    "draw-30": "81efa892b6f358dd4158ce143320c95845f2fa16d40a04a8396e6f09d0961ff4",
    "draw-31": "749019ef054214b072d84f4b082b6be126d162f26afbf4e3e95d4a7065c09b32",
    "draw-32": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-33": "11b2b7a32de4a8644e6e38762d037333a74b4cdb9c4ae812c63b30e6c983101b",
    "draw-34": "2f65db0bbca3c5955cad0c86e0f24793ca08a24c842afe62cf1b05dcff00f2eb",
    "draw-35": "81efa892b6f358dd4158ce143320c95845f2fa16d40a04a8396e6f09d0961ff4",
    "draw-36": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-37": "35e6c9231ae11af2f9c026aa01e285bc814fcbcc1aa55c7c4ceaecb8373f6ba6",
    "draw-38": "JetError d7a619741cc5a49723562b346b1b92dba12fe98f50ea7ac2fe97252f2534b911",
    "draw-39": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-40": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-41": "db87d6de3bd4c7090409ba5221cc1e29c2a631708ea268a0e6e01ca4c8d87b3e",
    "draw-42": "d5a9df30f33461d5843de5068044b6e11b0d5795eb0eda7651779e2fc9d50cd0",
    "draw-43": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-44": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-45": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-46": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
    "draw-47": "749019ef054214b072d84f4b082b6be126d162f26afbf4e3e95d4a7065c09b32",
    "draw-48": "d5a9df30f33461d5843de5068044b6e11b0d5795eb0eda7651779e2fc9d50cd0",
    "draw-49": "abc72e10f129644ef2ca5c0a8601461910355d08034bb26cb6272ba5c06676e8",
}


@pytest.mark.parametrize("name", sorted(NEW_EQUATIONS))
def test_new_equations_match_their_recording(name):
    P = prolong_system(encode_gstructure(_problem(name)))
    jet = P.base.space.jet
    lines = [f"{jet(*key)} = {rhs}" for key, rhs in sorted(P.new_equations().items())]
    assert _digest("\n".join(lines)) == NEW_EQUATIONS[name]


@pytest.mark.parametrize("name", sorted(INVOLUTION_LOGS))
def test_involution_logs_match_their_recording(name):
    try:
        _, log = complete_to_involution(encode_gstructure(_problem(name)), random.Random(0), cap=5)
    except JetError as exc:
        assert f"{type(exc).__name__} {_digest(str(exc))}" == INVOLUTION_LOGS[name]
    else:
        assert _digest(json.dumps(log, sort_keys=True)) == INVOLUTION_LOGS[name]

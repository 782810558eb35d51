"""REP304: the scalar-hot-loop rule."""

from pathlib import Path

import pytest

from repro.lint.engine import run_lint
from tests.lint.conftest import active_rules

SRC = Path(__file__).resolve().parents[2] / "src"


class TestScalarHotLoop:
    def test_scalar_kernel_in_loop_is_flagged(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def verdicts(cells, engine):
                    out = []
                    for cell in cells:
                        out.append(engine.compute(bytes(cell)))
                    return out
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]
        assert "compute" in result.active[0].message

    def test_underscored_helper_name_is_flagged(self, lint):
        result = lint({
            "repro/core/fragsplice.py": """
                def judge(subsets, packet):
                    missed = 0
                    for subset in subsets:
                        if _verify("tcp", packet):
                            missed += 1
                    return missed
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]

    def test_call_in_while_test_is_flagged(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def drain(engine, queue):
                    while engine.verify(queue.peek()):
                        queue.pop()
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]

    def test_comprehension_inside_loop_is_flagged(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def targets(pairs, engines):
                    for pair in pairs:
                        yield {n: e.compute(pair) for n, e in engines}
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]

    def test_call_outside_loop_is_clean(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def target(engine, frame):
                    return engine.compute(frame)
            """,
        }, rules=["REP304"])
        assert result.active == []

    def test_for_iterable_is_evaluated_once_and_clean(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def spans(engine, frame):
                    for word in word_sums(frame):
                        yield word
            """,
        }, rules=["REP304"])
        assert result.active == []

    def test_batch_kernels_in_loop_are_clean(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def folds(engine, chunks):
                    out = []
                    for chunk in chunks:
                        out.append(engine.process_cells(chunk))
                        out.append(range_word_sums(chunk, 0, 8))
                    return out
            """,
        }, rules=["REP304"])
        assert result.active == []

    def test_cold_module_loop_is_clean(self, lint):
        result = lint({
            "repro/analysis/tables.py": """
                def totals(engine, frames):
                    return [engine.compute(f) for f in frames]
            """,
        }, rules=["REP304"])
        assert result.active == []

    def test_nested_loops_report_once(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def verdicts(pairs, selections, options):
                    out = []
                    for pair in pairs:
                        for selection in selections:
                            out.append(judge_splice_cells(pair, selection, options))
                    return out
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]

    def test_pragma_suppresses_the_reference_path(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def verdicts(cells, engine):
                    out = []
                    for cell in cells:
                        # Conformance baseline.  reprolint: disable=REP304
                        out.append(engine.compute(bytes(cell)))
                    return out
            """,
        }, rules=["REP304"])
        assert result.active == []
        assert result.suppressed == 1


class TestSenderIsBatchHot:
    """The sender frames and packetizes whole files; keep it that way."""

    def test_per_packet_framing_loop_is_flagged(self, lint):
        result = lint({
            "repro/protocols/ftpsim.py": """
                from repro.protocols.aal5 import build_aal5_frame

                def transfer(packets):
                    units = []
                    for packet in packets:
                        units.append(build_aal5_frame(packet.ip_packet))
                    return units
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]
        assert "build_aal5_frame" in result.active[0].message

    @pytest.mark.parametrize("module", ["packetizer", "aal5"])
    def test_per_packet_build_loop_is_flagged(self, lint, module):
        result = lint({
            "repro/protocols/%s.py" % module: """
                def packetize(self, chunks):
                    packets = []
                    for chunk in chunks:
                        packets.append(self.build_packet(chunk))
                    return packets
            """,
        }, rules=["REP304"])
        assert active_rules(result) == ["REP304"]

    def test_sender_sources_pass_without_pragmas(self):
        assert run_lint([SRC], rules=["REP304"]).active == []
        for name in ("ftpsim", "packetizer", "aal5"):
            source = (SRC / "repro" / "protocols" / (name + ".py")).read_text(
                encoding="utf-8")
            assert "reprolint:" not in source, name

"""Table II: system configuration."""

from __future__ import annotations

from conftest import emit_table

from repro.params import default_config


def test_table2_system_configuration(benchmark):
    def build():
        cfg = default_config()
        t, org, cpu = cfg.timing, cfg.org, cfg.cpu
        abo_window = cfg.prac.abo_window_ns
        return [
            ["Out-Of-Order Cores",
             f"{cpu.cores} Core, {cpu.freq_ghz:.0f}GHz, {cpu.issue_width} wide, "
             f"{cpu.rob_entries} entry ROB"],
            ["Last Level Cache (Shared)",
             f"{cpu.llc_bytes // (1024 * 1024)}MB, {cpu.llc_ways}-Way, "
             f"{org.line_size_bytes}B lines"],
            ["Memory Size, Type",
             f"{org.capacity_bytes // 1024**3} GB, DDR5"],
            ["DRAM Organization",
             f"{org.banks_per_group} Bank x {org.bankgroups} Groups x "
             f"{org.ranks} Ranks x {org.channels} Channel"],
            ["tRCD, tCL, tRAS", f"{t.t_rcd:.0f}ns, {t.t_cl:.0f}ns, {t.t_ras:.0f}ns"],
            ["tRP, tRTP, tWR, tRC",
             f"{t.t_rp:.0f}ns, {t.t_rtp:.0f}ns, {t.t_wr:.0f}ns, {t.t_rc:.0f}ns"],
            ["tRFC, tREFI", f"{t.t_rfc:.0f} ns, {t.t_refi / 1000:.1f}us"],
            ["tABO_ACT, tRFMab", f"{abo_window:.0f}ns, {t.t_rfm:.0f}ns"],
            ["Rows Per Bank, Size",
             f"{org.rows_per_bank // 1024}K, {org.row_size_bytes // 1024}KB"],
        ]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    emit_table("table2", "Table II: system configuration", ["Item", "Value"], rows)
    cfg = default_config()
    assert cfg.org.capacity_bytes == 64 * 1024**3
    assert cfg.timing.t_rp == 36.0  # PRAC-stretched precharge
    assert cfg.cpu.rob_entries == 352

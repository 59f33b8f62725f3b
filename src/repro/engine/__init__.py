"""Precompiled command/timing tables (:mod:`repro.engine.tables`).

:class:`~repro.dram.device.DramChannel` and the raw-command probe host
read their per-configuration timing constants from these tables.
"""

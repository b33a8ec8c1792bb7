"""Run-provenance manifest tests: digests, stamping, cache shards."""

from __future__ import annotations

import json

from repro.harness import runner as runner_mod
from repro.harness.runner import cached_run, peek_cached, resolve_config
from repro.obs import build_manifest, config_digest, format_manifest
from repro.obs import manifest as manifest_mod
from repro.sim.engine import SimulationParams, run_workload

PARAMS = SimulationParams(accesses_per_core=300)


class TestConfigDigest:
    def test_stable_across_equal_configs(self):
        a = resolve_config("dice", 65536)
        b = resolve_config("dice", 65536)
        assert config_digest(a) == config_digest(b)

    def test_distinguishes_configs(self):
        assert config_digest(resolve_config("dice", 65536)) != config_digest(
            resolve_config("base", 65536)
        )
        assert config_digest(resolve_config("dice", 65536)) != config_digest(
            resolve_config("dice", 4096)
        )

    def test_digest_is_short_hex(self):
        digest = config_digest(resolve_config("base", 65536))
        assert len(digest) == 16
        int(digest, 16)  # raises if not hex


class TestModelDigest:
    def _tree(self, root):
        (root / "sim").mkdir(parents=True)
        (root / "harness").mkdir()
        (root / "config.py").write_text("SCALE = 1\n")
        (root / "sim" / "engine.py").write_text("def run(): pass\n")
        (root / "harness" / "cli.py").write_text("def main(): pass\n")
        return root

    def test_model_edits_change_it_and_harness_edits_do_not(self, tmp_path):
        root = self._tree(tmp_path / "repro")
        digest = manifest_mod.model_source_digest(root)
        (root / "harness" / "cli.py").write_text("def main(): return 1\n")
        assert manifest_mod.model_source_digest(root) == digest
        (root / "sim" / "engine.py").write_text("def run(): return 1\n")
        edited = manifest_mod.model_source_digest(root)
        assert edited != digest
        (root / "sim" / "engine.py").rename(root / "sim" / "loop.py")
        assert manifest_mod.model_source_digest(root) not in (digest, edited)
        (root / "config.py").write_text("SCALE = 2\n")
        assert manifest_mod.model_source_digest(root) not in (digest, edited)

    def test_manifest_names_the_loaded_model(self, tiny_system):
        manifest = build_manifest("mcf", tiny_system, PARAMS)
        assert manifest["model_digest"] == manifest_mod.MODEL_DIGEST
        assert manifest_mod.MODEL_DIGEST in format_manifest(manifest)


class TestGitSha:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setattr(manifest_mod, "_git_sha_cache", manifest_mod._UNRESOLVED)
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        assert manifest_mod.git_sha() == "cafe1234"
        monkeypatch.setattr(manifest_mod, "_git_sha_cache", manifest_mod._UNRESOLVED)


class TestBuildManifest:
    def test_core_fields(self, tiny_system):
        manifest = build_manifest("mcf", tiny_system, PARAMS, elapsed_s=1.25)
        assert manifest["workload"] == "mcf"
        assert manifest["config"] == tiny_system.name
        assert manifest["config_digest"] == config_digest(tiny_system)
        assert manifest["seed"] == PARAMS.seed
        assert manifest["params"]["accesses_per_core"] == 300
        assert manifest["elapsed_s"] == 1.25
        json.dumps(manifest)  # must be JSON-serializable as-is

    def test_none_params_gives_null_block(self, tiny_system):
        manifest = build_manifest("trace", tiny_system)
        assert manifest["params"] is None
        assert manifest["seed"] is None

    def test_format_manifest(self, tiny_system):
        manifest = build_manifest("mcf", tiny_system, PARAMS)
        rendered = format_manifest(manifest)
        assert "config_digest" in rendered
        assert "params.seed" not in rendered  # seed is top-level
        assert "seed" in rendered
        assert format_manifest(None).startswith("(no manifest")


class TestManifestOnResults:
    def test_run_workload_stamps_manifest(self, tiny_system):
        result = run_workload("mcf", tiny_system, PARAMS)
        manifest = result.manifest
        assert manifest is not None
        assert manifest["config_digest"] == config_digest(tiny_system)
        assert manifest["seed"] == PARAMS.seed
        assert manifest["elapsed_s"] > 0
        assert "git_sha" in manifest

    def test_equality_ignores_manifest(self, tiny_system):
        """Two runs of the same sim are the same result, different execution."""
        a = run_workload("mcf", tiny_system, PARAMS)
        b = run_workload("mcf", tiny_system, PARAMS)
        assert a.manifest["wall_clock_utc"] is not None
        assert a == b  # despite different elapsed_s / wall clocks

    def test_cache_shard_carries_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "_CACHE_PATH", tmp_path / ".sim_cache.json"
        )
        monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        cached_run("mcf", "base", scale=65536, params=PARAMS)
        shards = list((tmp_path / ".sim_cache.d").glob("*.json"))
        assert shards, "cached_run must write a shard"
        entry = json.loads(shards[0].read_text())
        manifest = entry["result"]["manifest"]
        assert manifest["config_digest"]
        assert manifest["seed"] == PARAMS.seed
        assert "git_sha" in manifest

        # and a fresh process (cleared memory state) reloads it intact
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        reloaded = peek_cached("mcf", "base", scale=65536, params=PARAMS)
        assert reloaded is not None
        assert reloaded.manifest["config_digest"] == manifest["config_digest"]

    def test_legacy_shard_without_manifest_still_loads(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            runner_mod, "_CACHE_PATH", tmp_path / ".sim_cache.json"
        )
        monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        result = cached_run("mcf", "base", scale=65536, params=PARAMS)
        # simulate a pre-provenance entry: strip the manifest on disk
        shard = next((tmp_path / ".sim_cache.d").glob("*.json"))
        entry = json.loads(shard.read_text())
        del entry["result"]["manifest"]
        shard.write_text(json.dumps(entry))
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        reloaded = peek_cached("mcf", "base", scale=65536, params=PARAMS)
        assert reloaded is not None
        assert reloaded.manifest is None
        assert reloaded == result  # equality ignores the manifest

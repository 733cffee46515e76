"""Run manifest: per-stage input/output digests for provenance and caching.

The manifest lives at <out>/manifest.json.  Stages are keyed by name, so
re-running a command replaces its entry instead of appending (commands stay
idempotent).  The manifest's own digest covers the config digest and the
input/output digests but not timing, so reruns of a deterministic pipeline
agree on it byte for byte.  It is written to a temporary file beside it
and then renamed over it, so a crash mid-write leaves the previous manifest.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DataFileError

MANIFEST_NAME = "manifest.json"
TOOL_VERSION = "0.1.0"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    out_dir: Path
    config_digest: str = ""
    stages: dict = field(default_factory=dict)

    @classmethod
    def load_or_create(cls, out_dir, config_digest: str) -> "RunManifest":
        out_dir = Path(out_dir)
        path = out_dir / MANIFEST_NAME
        manifest = cls(out_dir=out_dir, config_digest=config_digest)
        if path.exists():
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise DataFileError(f"{path}: corrupt manifest ({exc})") from exc
            if doc.get("config_digest") == config_digest:
                manifest.stages = doc.get("stages", {})
            # A different config in the same directory starts a fresh manifest.
        return manifest

    def _key(self, path) -> str:
        """Manifest key for a path: out_dir-relative, or the bare name for
        files elsewhere, so manifests agree across working directories."""
        p = Path(path)
        return str(p.relative_to(self.out_dir)) if p.is_relative_to(self.out_dir) else p.name

    def record_stage(self, name: str, inputs: dict, outputs: list, elapsed_s: float) -> None:
        """Record a stage; paths are digested and stored under relative keys."""
        self.stages[name] = {
            "inputs": dict(sorted((self._key(k), v) for k, v in inputs.items())),
            "outputs": dict(sorted((self._key(p), file_digest(p)) for p in outputs)),
            "elapsed_s": round(elapsed_s, 3),
        }
        self.save()

    def digest(self) -> str:
        """Content hash over config digest and stage I/O digests (not timing)."""
        stable = {
            "config_digest": self.config_digest,
            "stages": {
                name: {"inputs": st["inputs"], "outputs": st["outputs"]}
                for name, st in sorted(self.stages.items())
            },
        }
        return hashlib.sha256(
            json.dumps(stable, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def save(self) -> None:
        doc = {
            "tool_version": TOOL_VERSION,
            "config_digest": self.config_digest,
            "stages": {k: self.stages[k] for k in sorted(self.stages)},
            "digest": self.digest(),
        }
        path = self.out_dir / MANIFEST_NAME
        tmp = path.with_name(f".{MANIFEST_NAME}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def recorded_digest(self, rel_path: str):
        """Digest previously recorded for an output file, if any."""
        for stage in self.stages.values():
            if rel_path in stage["outputs"]:
                return stage["outputs"][rel_path]
        return None

    def verify_input(self, path) -> str:
        """Check a file exists and still matches any digest recorded for it."""
        path = Path(path)
        if not path.exists():
            raise DataFileError(f"{path}: input file missing")
        digest = file_digest(path)
        recorded = self.recorded_digest(self._key(path))
        if recorded is not None and recorded != digest:
            raise DataFileError(
                f"{path}: digest mismatch (manifest has {recorded[:12]}..., "
                f"file is {digest[:12]}...)"
            )
        return digest

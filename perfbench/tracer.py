"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` replaces each function in ``TARGETS`` at every
``diarkit.*`` module attribute that binds it, so calls made through a
name imported into another module (``cli.py`` imports the stage
functions by name) are recorded too, and a function that moves between
modules is still found. A target that no longer exists is listed as
absent. Spans are (name, start, end, parent index, info) and stay in
memory until ``dump``; info holds the call's input size and counters.

``layer_metrics`` and ``layer_self_seconds`` turn the dumped spans into
the benchmark's per-layer numbers; they need no package import.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref

# (layer, attribute): the layer is the module that defines the function
# today; a dotted attribute is a method of a class.
TARGETS = (
    ("cluster", "agglomerative_cluster"),
    ("cluster", "labels_to_turns"),
    ("vad", "energy_vad"),
    ("vad", "uniform_segment"),
    ("embed", "MfccEmbedder.embed"),
    ("metrics", "compute_der"),
    ("metrics", "compute_jer"),
    ("metrics", "turns_purity"),
    ("metrics", "hungarian_assign"),
    ("audio_io", "sinc_interp"),
    ("audio_io", "read_wav"),
    ("audio_io", "write_wav"),
    ("audio_io", "parse_rttm"),
    ("audio_io", "emit_rttm"),
    ("augment", "speed_change"),
    ("augment", "pitch_shift"),
    ("augment", "add_noise"),
    ("augment", "augment_file"),
    ("preprocess", "spectral_gate_denoise"),
    ("corpus", "generate_mixture"),
    ("corpus", "generate_dataset"),
    ("corpus", "synth_utterance"),
    ("cli", "diarize_buffer"),
    ("cli", "main"),
)


def _turns(a, r):
    return {"turns": len(a["ref"]) + len(a["hyp"])}


def _vad(a, r):
    buf = a["buf"]
    return {
        "audio_s": len(buf) / buf.sample_rate_hz,
        "speech_s": sum(x.offset_s - x.onset_s for x in r),
        "regions": len(r),
    }


# Input size and counters per call, from the bound arguments and result.
INFO = {
    "agglomerative_cluster": lambda a, r: {
        "n": len(a["embs"]), "merges": len(r.merge_trace), "clusters": r.n_clusters
    },
    "energy_vad": _vad,
    "uniform_segment": lambda a, r: {"segments": len(r)},
    "compute_der": _turns,
    "compute_jer": _turns,
    "turns_purity": _turns,
    "hungarian_assign": lambda a, r: {"shape": list(getattr(a["cost"], "shape", ()))},
    "sinc_interp": lambda a, r: {"in_samples": len(a["x"]), "out_samples": len(r)},
}


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "diarkit" or name.startswith("diarkit."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.info_errors: dict[str, str] = {}
        # Buffers each embedder has already framed, for the first-call span.
        self._embedded: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self) -> None:
        import diarkit  # noqa: F401  (the package imports every module)

        modules = _package_modules()
        for layer, attr in TARGETS:
            owner, _, name = attr.rpartition(".")
            found = self._find(modules, layer, owner or name)
            if found is None or (owner and name not in vars(found)):
                self.absent.append(f"{layer}.{attr}")
                continue
            span_name = f"{layer}.{name}"
            if owner:
                setattr(found, name, self._wrap(span_name, vars(found)[name]))
                continue
            wrapper = self._wrap(span_name, found)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is found:
                        setattr(module, key, wrapper)

    @staticmethod
    def _find(modules, layer, name):
        home = sys.modules.get(f"diarkit.{layer}")
        if home is not None and callable(getattr(home, name, None)):
            return getattr(home, name)
        for module in modules:
            value = vars(module).get(name)
            if callable(value):
                return value
        return None

    def _wrap(self, span_name, fn):
        spans, stack = self.spans, self.stack
        short = span_name.rpartition(".")[2]
        info_fn = INFO.get(short)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            info = {}
            if short == "embed":
                info["first"] = self._first_embed(args)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["raised"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, info)
            if info_fn is not None:
                try:
                    info.update(info_fn(sig.bind(*args, **kwargs).arguments, result))
                except (TypeError, KeyError, AttributeError) as exc:
                    self.info_errors[span_name] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def _first_embed(self, args) -> bool:
        embedder, buf = args[0], args[1]
        seen = self._embedded.setdefault(buf, set())
        first = id(embedder) not in seen
        seen.add(id(embedder))
        return first

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "absent": self.absent, "info_errors": self.info_errors},
                fh,
            )


def _outermost_seconds(spans, names) -> float:
    """Total time of spans named in ``names`` that have no such ancestor."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _self_seconds(spans) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_seconds(spans) -> dict[str, float]:
    """Seconds each layer spent in its own code, child spans removed."""
    out: dict[str, float] = {}
    for span, own in zip(spans, _self_seconds(spans)):
        layer = span[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def layer_metrics(run_spans, gen_spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``run_spans`` from a traced timed iteration,
    ``gen_spans`` from the traced input generation (the corpus layer)."""

    def secs(*names, spans=run_spans):
        return (_outermost_seconds(spans, set(names)), "s")

    def total(name, key, spans=run_spans):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    def calls(name, spans=run_spans):
        return (sum(1 for s in spans if s[0] == name), "count")

    audio_s = total("vad.energy_vad", "audio_s")
    speech_s = total("vad.energy_vad", "speech_s")
    self_main = sum(
        own for s, own in zip(run_spans, _self_seconds(run_spans)) if s[0] == "cli.main"
    )
    return {
        "cluster.agglomerative_cluster.s": secs("cluster.agglomerative_cluster"),
        "cluster.n_in": (total("cluster.agglomerative_cluster", "n"), "count"),
        "cluster.merges": (total("cluster.agglomerative_cluster", "merges"), "count"),
        "cluster.n_clusters": (total("cluster.agglomerative_cluster", "clusters"), "count"),
        "cluster.labels_to_turns.s": secs("cluster.labels_to_turns"),
        "vad.energy_vad.s": secs("vad.energy_vad"),
        "vad.speech_frac": (speech_s / audio_s if audio_s else 0.0, "ratio"),
        "vad.regions": (total("vad.energy_vad", "regions"), "count"),
        "vad.uniform_segment.s": secs("vad.uniform_segment"),
        "vad.segments": (total("vad.uniform_segment", "segments"), "count"),
        "embed.embed.s": secs("embed.embed"),
        "embed.embed.calls": calls("embed.embed"),
        "embed.first_embed.s": (
            sum(s[2] - s[1] for s in run_spans if s[0] == "embed.embed" and s[4].get("first")),
            "s",
        ),
        "metrics.compute_der.s": secs("metrics.compute_der"),
        "metrics.compute_jer.s": secs("metrics.compute_jer"),
        "metrics.turns_purity.s": secs("metrics.turns_purity"),
        "metrics.hungarian_assign.s": secs("metrics.hungarian_assign"),
        "metrics.turns_in": (total("metrics.compute_der", "turns"), "count"),
        "audio_io.sinc_interp.s": secs("audio_io.sinc_interp"),
        "audio_io.sinc_interp.out_samples": (
            total("audio_io.sinc_interp", "out_samples"), "count"
        ),
        "audio_io.read_wav.s": secs("audio_io.read_wav"),
        "audio_io.write_wav.s": secs("audio_io.write_wav"),
        "audio_io.rttm.s": secs("audio_io.parse_rttm", "audio_io.emit_rttm"),
        "augment.speed_change.s": secs("augment.speed_change"),
        "augment.pitch_shift.s": secs("augment.pitch_shift"),
        "augment.add_noise.s": secs("augment.add_noise"),
        "augment.augment_file.calls": calls("augment.augment_file"),
        "preprocess.spectral_gate_denoise.s": secs("preprocess.spectral_gate_denoise"),
        "corpus.generate.s": secs(
            "corpus.generate_mixture", "corpus.generate_dataset", spans=gen_spans
        ),
        "corpus.synth_utterance.calls": calls("corpus.synth_utterance", spans=gen_spans),
        "cli.diarize_buffer.s": secs("cli.diarize_buffer"),
        "cli.main.self_s": (self_main, "s"),
    }

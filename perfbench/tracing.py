"""In-memory spans around the public functions of each homosyntax layer.

The spans are recorded from the benchmark's side: every name listed in
SPANS is replaced, for the length of a traced run, by a wrapper that times
the call. A function is patched in every homosyntax module that binds it,
because that is where the calling code looks it up (``model3`` calls its own
``score_candidates`` global, ``model1`` its imported ``inflect``). Methods
and classmethods are patched on their class.

Consecutive calls of one name under the same parent span and request are
merged into one record that keeps the call count, the first start, the last
end, the summed duration and the summed self time. Model 3 calls
``proximity`` thousands of times per sentence, so per-call records would not
fit in memory; the merged tree keeps every parent link and every total.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter

# <module>.<function> or <module>.<Class>.<method>, relative to homosyntax
SPANS = (
    "corpus.read_sentences",
    "pos.TaggerLexicon.load",
    "pos.tag_sentence",
    "pos.write_tagged_tsv",
    "markov.build_transition_matrix",
    "templates.TemplateStore.from_sentences",
    "embeddings.train_embeddings",
    "embeddings.build_associative_table",
    "generation.FunctionWordDictionary.from_sentences",
    "markov.TransitionMatrix.save",
    "templates.TemplateStore.save",
    "embeddings.EmbeddingStore.save",
    "embeddings.AssociativeTable.save",
    "generation.FunctionWordDictionary.save",
    "resources.load_resources",
    "markov.TransitionMatrix.load",
    "templates.TemplateStore.load",
    "embeddings.EmbeddingStore.load",
    "embeddings.AssociativeTable.load",
    "generation.FunctionWordDictionary.load",
    "morphology.FormsLexicon.load",
    "model1.generate_model1",
    "model2.generate_model2",
    "model3.generate_model3",
    "markov.generate_egv",
    "model1.fill_content_with_relaxation",
    "morphology.inflect",
    "morphology.matches_tag",
    "embeddings.EmbeddingStore.neighbors",
    "embeddings.EmbeddingStore.proximity",
    "model2.rank_vocabulary",
    "model3.score_candidates",
    "templates.select_template",
    "generation.GenerationResources.is_novel",
)

# span -> (count name, amount its return value adds to the count)
COUNTERS = {
    "model1.fill_content_with_relaxation": ("model1.hops", lambda r: r[1]),
    "model2.rank_vocabulary": ("model2.ranked_words", len),
    "model3.score_candidates": ("model3.candidates_scored", len),
    "generation.GenerationResources.is_novel": (
        "generation.novelty_rejections",
        lambda r: int(not r),
    ),
}

# fields of a span record
NAME, REQUEST, PARENT, CALLS, START, END, DURATION, SELF = range(8)


class Tracer:
    """Merged span records, per-name totals and counts of one traced run."""

    def __init__(self):
        self.request = -1  # request id stamped on new spans; -1 outside requests
        self.records: list[list] = []
        self.stack: list[list] = []  # [record, start, seconds covered by children]
        self.last_child: dict[int, int] = {}  # parent record (-1: root) -> child
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts = {count: 0 for count, _ in COUNTERS.values()}

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def _enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        rec = self.last_child.get(parent)
        if (
            rec is None
            or self.records[rec][NAME] != name
            or self.records[rec][REQUEST] != self.request
        ):
            rec = len(self.records)
            self.records.append([name, self.request, parent, 0, None, 0.0, 0.0, 0.0])
            self.last_child[parent] = rec
        frame = [rec, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        rec, start, children = frame
        duration = end - start
        record = self.records[rec]
        record[CALLS] += 1
        if record[START] is None:
            record[START] = start
        record[END] = end
        record[DURATION] += duration
        record[SELF] += duration - children
        total = self.totals.setdefault(record[NAME], [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - children
        if self.stack:
            self.stack[-1][2] += duration

    def write(self, path: Path) -> None:
        """One tab-separated line per merged span record, times in ms."""
        origin = min((r[START] for r in self.records), default=0.0)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("id\trequest\tparent\tname\tcalls\tstart_ms\tend_ms\tms\tself_ms\n")
            for i, r in enumerate(self.records):
                f.write(
                    f"{i}\t{r[REQUEST]}\t{r[PARENT]}\t{r[NAME]}\t{r[CALLS]}\t"
                    f"{(r[START] - origin) * 1e3:.3f}\t{(r[END] - origin) * 1e3:.3f}\t"
                    f"{r[DURATION] * 1e3:.3f}\t{r[SELF] * 1e3:.3f}\n"
                )


class Instrumentation:
    """Installs and removes the tracer's wrappers around every span."""

    def __init__(self, tracer: Tracer):
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None
            and (name == "homosyntax" or name.startswith("homosyntax."))
        }
        self.patches: list[tuple[object, str, object, object]] = []
        for span in SPANS:
            parts = span.split(".")
            module = modules.get("homosyntax." + parts[0])
            if module is None:
                raise LookupError(f"span {span}: module not imported")
            if len(parts) == 2:
                original = getattr(module, parts[1])
                wrapped = tracer.wrap(span, original)
                for owner in modules.values():
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self.patches.append((owner, attr, original, wrapped))
            else:
                cls = getattr(module, parts[1])
                original = vars(cls)[parts[2]]
                if isinstance(original, classmethod):
                    wrapped = classmethod(tracer.wrap(span, original.__func__))
                else:
                    wrapped = tracer.wrap(span, original)
                self.patches.append((cls, parts[2], original, wrapped))

    def enable(self) -> None:
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

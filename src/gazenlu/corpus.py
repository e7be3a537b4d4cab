"""Corpora, splits, and synthetic data with known generating laws.

TSV everywhere: UTF-8, tab-delimited, no quoting, explicit headers.
The synthetic gaze corpus comes from a Markov saccade walk whose exact
per-step conditional distributions are retained, so held-out NLL can be
compared against the true conditional entropy rather than a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import RngState

METRICS = ("accuracy", "f1", "matthews", "spearman", "auc")
SINGLE, PAIR = "single", "pair"
CLASSES, REAL = "classes", "real"


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    fields: str = SINGLE
    label_kind: str = CLASSES
    metric_id: str = "accuracy"
    n_classes: int = 2
    label_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.fields not in (SINGLE, PAIR):
            raise ValueError(f"fields must be single|pair, got {self.fields!r}")
        if self.label_kind not in (CLASSES, REAL):
            raise ValueError(f"label_kind must be classes|real, got {self.label_kind!r}")
        if self.metric_id not in METRICS:
            raise ValueError(f"metric_id must be one of {METRICS}, got {self.metric_id!r}")


@dataclass
class TextInstance:
    instance_id: str
    text1: str
    text2: str | None
    label: float


@dataclass
class GazeRecord:
    sentence_id: str
    reader_id: str
    text: str
    fixations: list[int]

    @property
    def n_words(self) -> int:
        return len(self.text.split())


@dataclass
class LowResourceSplit:
    K: int
    data_seed: int
    train_ids: list[int]
    dev_ids: list[int]


# -- TSV IO --------------------------------------------------------------

GAZE_HEADER = ["sentence_id", "reader_id", "text", "fixations"]


def _read_tsv(path, expected_header: list[str]):
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split("\t")
    if header != expected_header:
        raise ValueError(f"{path}:1: header {header} != expected {expected_header}")
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(expected_header):
            raise ValueError(
                f"{path}:{i}: {len(cells)} fields, expected {len(expected_header)}"
            )
        yield i, cells


def load_gaze_corpus(path) -> list[GazeRecord]:
    records = []
    for lineno, (sid, rid, text, fix) in _read_tsv(path, GAZE_HEADER):
        try:
            fixations = [int(x) for x in fix.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer fixation in {fix!r}")
        rec = GazeRecord(sid, rid, text, fixations)
        if not fixations:
            raise ValueError(f"{path}:{lineno}: record {sid}/{rid} has no fixations")
        n = rec.n_words
        bad = [f for f in fixations if not 0 <= f < n]
        if bad:
            raise ValueError(
                f"{path}:{lineno}: record {sid}/{rid} fixation {bad[0]} out of range "
                f"for {n} words"
            )
        records.append(rec)
    return records


def write_gaze_corpus(path, records: list[GazeRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(GAZE_HEADER) + "\n")
        for r in records:
            fix = " ".join(str(i) for i in r.fixations)
            f.write(f"{r.sentence_id}\t{r.reader_id}\t{r.text}\t{fix}\n")


def _dataset_header(spec: DatasetSpec) -> list[str]:
    if spec.fields == PAIR:
        return ["sentence1", "sentence2", "label"]
    return ["sentence1", "label"]


def load_dataset(path, spec: DatasetSpec) -> list[TextInstance]:
    out = []
    for lineno, cells in _read_tsv(path, _dataset_header(spec)):
        if spec.fields == PAIR:
            t1, t2, raw = cells
        else:
            (t1, raw), t2 = cells, None
        for name, text in (("sentence1", t1), ("sentence2", t2)):
            if text is not None and not text.split():
                raise ValueError(f"{path}:{lineno}: {name} is empty")
        if spec.label_kind == CLASSES:
            try:
                label = int(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: class label {raw!r} is not an integer")
            if not 0 <= label < spec.n_classes:
                raise ValueError(
                    f"{path}:{lineno}: class label {label} outside 0..{spec.n_classes - 1}"
                )
        else:
            try:
                label = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: regression label {raw!r} is not numeric")
            lo, hi = spec.label_range
            if not lo <= label <= hi:
                raise ValueError(f"{path}:{lineno}: label {label} outside [{lo}, {hi}]")
        out.append(TextInstance(f"{spec.name}-{lineno - 1}", t1, t2, label))
    return out


def write_dataset(path, spec: DatasetSpec, instances: list[TextInstance]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(_dataset_header(spec)) + "\n")
        for inst in instances:
            label = (
                str(int(inst.label)) if spec.label_kind == CLASSES else repr(float(inst.label))
            )
            if spec.fields == PAIR:
                f.write(f"{inst.text1}\t{inst.text2}\t{label}\n")
            else:
                f.write(f"{inst.text1}\t{label}\n")


# -- splits --------------------------------------------------------------


def kfold(n_instances: int, folds: int = 10, seed: int = 42) -> list[np.ndarray]:
    """Deterministic shuffled partition; fold sizes differ by at most 1."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n_instances < folds:
        raise ValueError(f"{n_instances} instances cannot fill {folds} folds")
    order = RngState(seed, 0).substream("kfold").shuffled(list(range(n_instances)))
    base, extra = divmod(n_instances, folds)
    out = []
    at = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        out.append(np.array(order[at:at + size], dtype=np.int64))
        at += size
    return out


def low_resource_split(n_instances: int, K: int, data_seed: int) -> LowResourceSplit:
    """Shuffle once by data_seed; first K train, next up-to-1000 dev.

    The same seed at a larger K extends the train prefix, never reshuffles.
    """
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if n_instances < K + 1:
        raise ValueError(f"need at least K+1={K + 1} instances, got {n_instances}")
    order = RngState(data_seed, 0).substream("lowres").shuffled(list(range(n_instances)))
    dev_n = min(1000, n_instances - K)
    return LowResourceSplit(
        K=K,
        data_seed=data_seed,
        train_ids=list(order[:K]),
        dev_ids=list(order[K:K + dev_n]),
    )


# -- synthetic gaze ------------------------------------------------------


@dataclass(frozen=True)
class MarkovGazeModel:
    """Saccade walk: +1 forward, -1 regression, +2 skip, from virtual -1.

    Moves landing outside the sentence lose their mass: at entry the
    remaining moves renormalize (a path must start), afterwards the lost
    mass becomes the STOP probability. The resulting per-step conditional
    distributions are exact, which makes corpus entropy computable.
    """

    p_fwd: float = 0.6
    p_reg: float = 0.25
    p_skip: float = 0.15

    MOVES = (1, -1, 2)

    def __post_init__(self):
        probs = (self.p_fwd, self.p_reg, self.p_skip)
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"move probabilities must be >= 0 and sum to 1, got {probs}")

    def _probs(self):
        return (self.p_fwd, self.p_reg, self.p_skip)

    def step_distribution(self, pos: int, n_words: int) -> tuple[np.ndarray, bool]:
        """Probabilities over (moves..., STOP); STOP impossible at entry."""
        p = np.zeros(4)
        for m, pm in zip(self.MOVES, self._probs()):
            if 0 <= pos + m < n_words:
                p[self.MOVES.index(m)] = pm
        if pos < 0:
            total = p.sum()
            if total == 0:
                raise ValueError(f"no valid entry move for {n_words} words")
            return p / total, True
        p[3] = 1.0 - p[:3].sum()
        return p, False

    def step_entropy(self, pos: int, n_words: int) -> float:
        p, _ = self.step_distribution(pos, n_words)
        return float(-sum(q * math.log(q) for q in p if q > 0))

    def sample_path(self, n_words: int, rng: RngState, cap: int | None = None) -> list[int]:
        if cap is None:
            cap = 8 * n_words
        pos = -1
        path: list[int] = []
        while len(path) < cap:
            p, _ = self.step_distribution(pos, n_words)
            k = int(rng.categorical(p))
            if k == 3:
                break
            pos += self.MOVES[k]
            path.append(pos)
        return path

    def path_entropy(self, path: list[int], n_words: int) -> float:
        """Sum of conditional entropies over the path's F+1 decisions."""
        total = 0.0
        pos = -1
        for f in path:
            total += self.step_entropy(pos, n_words)
            pos = f
        total += self.step_entropy(pos, n_words)
        return total

    def path_nll(self, path: list[int], n_words: int) -> float:
        """Exact negative log-probability of the full path incl. STOP."""
        total = 0.0
        pos = -1
        for f in path:
            p, _ = self.step_distribution(pos, n_words)
            move = f - pos
            if move not in self.MOVES:
                raise ValueError(f"transition {pos}->{f} impossible under the walk")
            total -= math.log(p[self.MOVES.index(move)])
            pos = f
        p, at_entry = self.step_distribution(pos, n_words)
        if at_entry:
            raise ValueError("empty path cannot stop")
        total -= math.log(p[3])
        return total

    def corpus_entropy(self, records: list[GazeRecord]) -> float:
        """Pooled mean conditional entropy per decision over a corpus."""
        total = 0.0
        steps = 0
        for r in records:
            total += self.path_entropy(r.fixations, r.n_words)
            steps += len(r.fixations) + 1
        return total / steps

    def corpus_nll(self, records: list[GazeRecord]) -> float:
        total = 0.0
        steps = 0
        for r in records:
            total += self.path_nll(r.fixations, r.n_words)
            steps += len(r.fixations) + 1
        return total / steps


# -- synthetic suite -----------------------------------------------------


@dataclass
class SyntheticSuite:
    markov: MarkovGazeModel
    gaze_train: list[GazeRecord]
    gaze_dev: list[GazeRecord]
    keyword_spec: DatasetSpec
    keyword_train: list[TextInstance]
    keyword_dev: list[TextInstance]
    keyword_test: list[TextInstance]
    pairs_spec: DatasetSpec
    pairs_train: list[TextInstance]
    pairs_dev: list[TextInstance]
    pairs_test: list[TextInstance]

    def vocab_lines(self) -> list[str]:
        lines = [r.text for r in self.gaze_train + self.gaze_dev]
        for inst in (
            self.keyword_train + self.keyword_dev + self.keyword_test
            + self.pairs_train + self.pairs_dev + self.pairs_test
        ):
            lines.append(inst.text1)
            if inst.text2 is not None:
                lines.append(inst.text2)
        return lines


def _word_pool(rng: RngState, count: int, length: int = 4) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    pool: list[str] = []
    seen = set()
    while len(pool) < count:
        w = "".join(letters[int(i)] for i in rng.integers(0, 26, (length,)))
        if w not in seen:
            seen.add(w)
            pool.append(w)
    return pool


def _sentence(rng: RngState, pool: list[str], w_min: int, w_max: int) -> list[str]:
    n = int(rng.integers(w_min, w_max + 1, ()))
    return [pool[int(i)] for i in rng.integers(0, len(pool), (n,))]


def make_synthetic_suite(
    seed: int,
    markov: MarkovGazeModel | None = None,
    n_gaze_train: int = 400,
    n_gaze_dev: int = 100,
    readers: int = 2,
    n_keyword: tuple[int, int, int] = (2000, 500, 500),
    n_pairs: tuple[int, int, int] = (1000, 300, 300),
    w_min: int = 4,
    w_max: int = 10,
) -> SyntheticSuite:
    markov = markov or MarkovGazeModel()
    root = RngState(seed, 0).substream("synthetic")
    pool = _word_pool(root.substream("pool"), 40)
    keyword = "zq" + pool[0][:2]
    markers = ["m" + w[:3] for w in pool[1:5]]

    def gaze(tag: str, n: int) -> list[GazeRecord]:
        recs = []
        srng = root.substream("gaze", tag)
        for s in range(n):
            words = _sentence(srng.substream("text", s), pool, w_min, w_max)
            for r in range(readers):
                path = markov.sample_path(
                    len(words), srng.substream("path", s, r)
                )
                if not path:
                    path = [0]
                recs.append(GazeRecord(f"{tag}-{s}", f"r{r}", " ".join(words), path))
        return recs

    def keyword_set(tag: str, n: int) -> list[TextInstance]:
        srng = root.substream("keyword", tag)
        labels = [1] * (n // 2) + [0] * (n - n // 2)
        labels = srng.substream("labels").shuffled(labels)
        out = []
        for i, lbl in enumerate(labels):
            words = _sentence(srng.substream("text", i), pool, w_min, w_max)
            if lbl == 1:
                at = int(srng.substream("at", i).integers(0, len(words), ()))
                words[at] = keyword
            out.append(TextInstance(f"kw-{tag}-{i}", " ".join(words), None, lbl))
        return out

    def pairs_set(tag: str, n: int) -> list[TextInstance]:
        srng = root.substream("pairs", tag)
        labels = [1] * (n // 2) + [0] * (n - n // 2)
        labels = srng.substream("labels").shuffled(labels)
        out = []
        for i, lbl in enumerate(labels):
            w1 = _sentence(srng.substream("t1", i), pool, w_min, w_max)
            w2 = _sentence(srng.substream("t2", i), pool, w_min, w_max)
            m1 = markers[int(srng.substream("m1", i).integers(0, len(markers), ()))]
            if lbl == 1:
                m2 = m1
            else:
                others = [m for m in markers if m != m1]
                m2 = others[int(srng.substream("m2", i).integers(0, len(others), ()))]
            w1[int(srng.substream("a1", i).integers(0, len(w1), ()))] = m1
            w2[int(srng.substream("a2", i).integers(0, len(w2), ()))] = m2
            out.append(TextInstance(f"pr-{tag}-{i}", " ".join(w1), " ".join(w2), lbl))
        return out

    kw_spec = DatasetSpec("keyword", SINGLE, CLASSES, "accuracy", 2)
    pr_spec = DatasetSpec("pairs", PAIR, CLASSES, "accuracy", 2)
    return SyntheticSuite(
        markov=markov,
        gaze_train=gaze("train", n_gaze_train),
        gaze_dev=gaze("dev", n_gaze_dev),
        keyword_spec=kw_spec,
        keyword_train=keyword_set("train", n_keyword[0]),
        keyword_dev=keyword_set("dev", n_keyword[1]),
        keyword_test=keyword_set("test", n_keyword[2]),
        pairs_spec=pr_spec,
        pairs_train=pairs_set("train", n_pairs[0]),
        pairs_dev=pairs_set("dev", n_pairs[1]),
        pairs_test=pairs_set("test", n_pairs[2]),
    )

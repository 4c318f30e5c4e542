"""Span recorder for the traced run, and the per-layer metrics made from it.

`install()` wraps memlabel's public functions where their callers look them
up (a module attribute such as `memlabel.trainer.mplp_predict`, or a method
on its class), so nothing under `src/` changes. Each wrapped call records a
span (name, start, end, parent) in memory; a few calls also add to counters
read from their arguments or result. `Recorder.save` writes both when the run
ends, and `layer_metrics` turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its direct child
spans. Functions wrapped with `span=False` only count, and their time stays
in the caller's self time.
"""

import json
import time

import numpy as np


def _rank_list(result, bank, i):
    return {"bank.rank_entries_sorted": bank.n}


def _candidates(result, rank, t):
    return {"labels.candidates": result.k}


def _positives(result, bank, i, t):
    return {"labels.positives": len(result.positives)}


def _mined(result, scores, label, hard_ratio):
    return {"losses.negatives_kept": len(result),
            "losses.negatives_sorted": scores.shape[0] - len(label.positives)}


def _evaluated(result, split):
    return {"evaluation.queries": len(split.query_ids),
            "evaluation.skipped_queries": result.skipped_queries}


def _targets():
    """(owner, attribute, span name, counter, whether to record a span)."""
    import memlabel.bank as bank
    import memlabel.cli as cli
    import memlabel.config as config
    import memlabel.evaluation as evaluation
    import memlabel.experiments as experiments
    import memlabel.labels as labels
    import memlabel.losses as losses
    import memlabel.model as model
    import memlabel.trainer as trainer

    M, E = model.EmbeddingModel, bank.MemoryBank
    return [
        (cli, "main", "cli.main", None, True),
        (cli, "load_config", "config.load", None, True),
        (config, "load_config", "config.load", None, True),
        (M, "forward", "model.forward", None, True),
        (M, "backward", "model.backward", None, True),
        (M, "sgd_step", "model.sgd_step", None, True),
        (M, "save", "model.save", None, True),
        (trainer, "compute_loss", "losses.compute_loss", None, True),
        (losses, "mine_hard_negatives", "losses.mine_hard_negatives", _mined, True),
        (E, "update_row", "bank.update", None, True),
        (E, "overwrite_row", "bank.update", None, True),
        (E, "row_norm", "bank.row_norm", None, False),
        (E, "score_against_memory", "bank.score_against_memory", None, True),
        (E, "rank_list", "bank.rank_list", _rank_list, True),
        (E, "load", "bank.load", None, True),
        (E, "save", "bank.save", None, True),
        (trainer, "predict_labels", "labels.predict_labels", None, True),
        (cli, "predict_labels", "labels.predict_labels", None, True),
        (trainer, "mplp_predict", "labels.mplp_predict", _positives, True),
        (trainer, "knn_predict", "labels.knn_predict", None, True),
        (experiments, "knn_predict", "labels.knn_predict", None, True),
        (trainer, "similarity_score_predict", "labels.similarity_score_predict", None, True),
        (labels, "filter_by_threshold", "labels.filter_by_threshold", _candidates, False),
        (experiments, "label_quality", "labels.label_quality", None, True),
        (cli, "save_labels", "labels.save", None, True),
        (trainer, "run_epoch", "trainer.run_epoch", None, True),
        (trainer, "augment", "trainer.augment", None, True),
        (experiments, "evaluate", "evaluation.evaluate", _evaluated, True),
        (cli, "evaluate", "evaluation.evaluate", _evaluated, True),
        (cli, "write_metrics_log", "evaluation.write", None, True),
        (cli, "write_label_curve", "evaluation.write", None, True),
        (evaluation.MetricsReport, "save_summary", "evaluation.write", None, True),
        (experiments, "generate", "data.generate", None, True),
        (cli, "save_records", "data.save_records", None, True),
        (experiments, "load_records", "data.load", None, True),
        (cli, "import_features", "data.load", None, True),
    ]


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = {}
        self._stack = [-1]

    def wrap(self, fn, name, counter, span):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name + "_calls"] = self.counts.get(name + "_calls", 0) + 1
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        if not span:
            return counted

        def spanned(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return counted(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return spanned

    def install(self):
        """Wrap every target; also wraps each eval hook that
        `experiments.make_eval_hook` hands out."""
        import memlabel.experiments as experiments

        for owner, attr, name, counter, span in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, counter, span)))
            else:
                setattr(owner, attr, self.wrap(raw, name, counter, span))
        make_hook = experiments.make_eval_hook
        experiments.make_eval_hook = lambda *a, **kw: self.wrap(
            make_hook(*a, **kw), "experiments.eval_hook", None, True)

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 starts=np.array(self.starts), ends=np.array(self.ends),
                 parents=np.array(self.parents, dtype=np.int64),
                 counts=json.dumps(self.counts))


def _ratio(num, den):
    return num / den if den else 0.0


def import_time_s(stderr, module):
    """Cumulative import time of `module` in the `python -X importtime`
    report on `stderr`; 0 if the process never imported it."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) / 1e6
    return 0.0


def layer_metrics(spans_path, imports):
    """Per-layer metrics of one traced run. `imports` holds the import times
    of numpy, scipy.special and memlabel.

    Times are in seconds; a layer that does no work on a workload reads 0, and
    so does a ratio whose base is 0.
    """
    data = np.load(spans_path)
    names, parents = data["names"], data["parents"]
    counts = json.loads(str(data["counts"]))
    duration = data["ends"] - data["starts"]
    child_time = np.bincount(parents[parents >= 0], weights=duration[parents >= 0],
                             minlength=len(names))
    self_time = duration - child_time

    def total(*span_names):
        return float(duration[np.isin(names, span_names)].sum())

    def self_of(*span_names):
        return float(self_time[np.isin(names, span_names)].sum())

    def calls(name):
        return counts.get(name + "_calls", 0)

    metrics = {
        "import.numpy_s": imports["numpy"],
        "import.scipy_special_s": imports["scipy_special"],
        "import.memlabel_s": imports["memlabel"],
        "model.forward_s": total("model.forward"),
        "model.forward_calls": calls("model.forward"),
        "model.backward_s": total("model.backward"),
        "model.sgd_step_s": total("model.sgd_step"),
        "model.save_s": total("model.save"),
        "losses.compute_loss_s": self_of("losses.compute_loss"),
        "losses.compute_loss_calls": calls("losses.compute_loss"),
        "losses.mine_hard_negatives_s": total("losses.mine_hard_negatives"),
        "losses.mine_hard_negatives_calls": calls("losses.mine_hard_negatives"),
        "losses.negatives_kept_ratio": _ratio(counts.get("losses.negatives_kept", 0),
                                              counts.get("losses.negatives_sorted", 0)),
        "bank.update_s": total("bank.update"),
        "bank.update_calls": calls("bank.update"),
        "bank.row_norm_calls": calls("bank.row_norm"),
        "bank.score_against_memory_s": total("bank.score_against_memory"),
        "bank.rank_list_s": total("bank.rank_list"),
        "bank.rank_list_calls": calls("bank.rank_list"),
        "bank.rank_entries_sorted": counts.get("bank.rank_entries_sorted", 0),
        "bank.load_s": total("bank.load"),
        "bank.save_s": total("bank.save"),
        "labels.predict_s": self_of("labels.predict_labels", "labels.mplp_predict",
                                    "labels.knn_predict", "labels.similarity_score_predict"),
        "labels.mplp_predict_calls": calls("labels.mplp_predict"),
        "labels.knn_predict_calls": calls("labels.knn_predict"),
        "labels.candidates": counts.get("labels.candidates", 0),
        "labels.positives": counts.get("labels.positives", 0),
        "labels.cycle_accept_ratio": _ratio(counts.get("labels.positives", 0),
                                            counts.get("labels.candidates", 0)),
        "labels.label_quality_s": total("labels.label_quality"),
        "labels.save_s": total("labels.save"),
        "trainer.run_epoch_s": self_of("trainer.run_epoch"),
        "trainer.augment_s": total("trainer.augment"),
        "trainer.epochs": calls("trainer.run_epoch"),
        "experiments.eval_hook_s": self_of("experiments.eval_hook"),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.queries": counts.get("evaluation.queries", 0),
        "evaluation.skipped_queries": counts.get("evaluation.skipped_queries", 0),
        "evaluation.write_s": total("evaluation.write"),
        "data.generate_s": total("data.generate"),
        "data.save_records_s": total("data.save_records"),
        "data.load_s": total("data.load"),
        "config.load_s": total("config.load"),
        "cli.self_s": self_of("cli.main"),
    }
    return metrics

"""The CLI's flag table, pinned: every subcommand's options in order, each
with its option strings (or positional name), default, type, choices and
whether it is required. Dests are left out: they are the handlers' business."""

import argparse

from soupkit.cli import build_parser

_METRICS = ["accuracy", "macro_f1", "macro_recall", "roc_auc_ovr"]

FLAGS = {
    "gen-data": [
        (("--name",), None, None, None, True),
        (("--spec",), None, None, None, False),
        (("--kind",), "rough", None, ["smooth", "rough"], False),
        (("--seed",), 0, "int", None, False),
        (("--dims",), 6, "int", None, False),
        (("--classes",), 3, "int", None, False),
        (("--samples",), 900, "int", None, False),
        (("--imbalance",), 1.0, "float", None, False),
        (("--label-noise",), 0.0, "float", None, False),
        (("--heterogeneity",), 0.0, "float", None, False),
        (("--shift",), 0.0, "float", None, False),
        (("--source-shift",), 1.0, "float", None, False),
    ],
    "pretrain": [
        (("--data",), None, None, None, True),
        (("--arch",), "6,16,3", None, None, False),
        (("--activation",), "relu", None, ["relu", "tanh"], False),
        (("--lr",), None, "float", None, True),
        (("--epochs",), None, "int", None, True),
        (("--seed",), 0, "int", None, False),
        (("--batch-size",), 32, "int", None, False),
        (("--weight-decay",), 0.01, "float", None, False),
    ],
    "warmup": [
        (("--data",), None, None, None, True),
        (("--pretrained",), None, None, None, True),
        (("--lr",), None, "float", None, True),
        (("--epochs",), None, "int", None, True),
        (("--seed",), None, "int", None, False),
        (("--batch-size",), 32, "int", None, False),
        (("--weight-decay",), 0.01, "float", None, False),
    ],
    "grid": [
        (("--data",), None, None, None, True),
        (("--theta0",), None, None, None, True),
        (("--lrs",), None, None, None, True),
        (("--augments",), "minimal,medium,heavy", None, None, False),
        (("--seeds",), "0,1", None, None, False),
        (("--epochs",), None, "int", None, True),
        (("--batch-size",), 32, "int", None, False),
        (("--weight-decay",), 0.01, "float", None, False),
    ],
    "fgg-base": [
        (("--data",), None, None, None, True),
        (("--theta0",), None, None, None, True),
        (("--lrs",), None, None, None, True),
        (("--augment",), "heavy", None, ["minimal", "medium", "heavy"], False),
        (("--seed",), 0, "int", None, False),
        (("--epochs",), None, "int", None, True),
        (("--batch-size",), 32, "int", None, False),
        (("--weight-decay",), 0.01, "float", None, False),
    ],
    "fission": [
        (("--data",), None, None, None, True),
        (("--base",), None, None, None, True),
        (("--cycle-epochs",), 2, "int", None, False),
        (("--alpha1",), None, "float", None, True),
        (("--alpha2",), None, "float", None, True),
        (("--n-collect",), None, "int", None, True),
    ],
    "soup": [
        (("--data",), None, None, None, True),
        (("--method",), None, None, ["uniform", "greedy", "gou", "gog", "fgg_uniform", "fgg_greedy", "gs_gou", "gs_gog"], True),
        (("--metric",), None, None, _METRICS, True),
        (("--ids",), None, None, None, False),
        (("--bases",), None, None, None, False),
    ],
    "eval": [
        (("--id",), None, None, None, True),
        (("--data",), None, None, None, True),
        (("--split",), "test", None, ["train", "val", "test", "ood", "source"], False),
        (("--metric",), None, None, _METRICS, True),
    ],
    "lmc": [
        (("--a",), None, None, None, True),
        (("--b",), None, None, None, True),
        (("--data",), None, None, None, True),
        (("--split",), "val", None, ["train", "val", "test", "ood"], False),
        (("--metric",), None, None, _METRICS, True),
        (("--points",), 11, "int", None, False),
        (("--out",), None, None, None, False),
    ],
    "landscape": [
        (("--ids",), None, None, None, True),
        (("--data",), None, None, None, True),
        (("--split",), "val", None, ["train", "val", "test", "ood"], False),
        (("--metric",), None, None, _METRICS, True),
        (("--resolution",), "25,25", None, None, False),
        (("--margin",), 0.2, "float", None, False),
        (("--out",), None, None, None, False),
    ],
    "report": [
        (("--ids",), None, None, None, True),
        (("--labels",), None, None, None, False),
        (("--data",), None, None, None, True),
        (("--metric",), None, None, _METRICS, True),
        (("--out",), None, None, None, True),
    ],
    "budget": [
        (("--ids",), None, None, None, False),
        (("--out",), None, None, None, False),
    ],
    "run-experiment": [
        ("config", None, None, None, True),
    ],
}


def _table(parser: argparse.ArgumentParser) -> dict:
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {command: [(tuple(a.option_strings) or a.dest, a.default, a.type and a.type.__name__,
                       None if a.choices is None else list(a.choices), a.required)
                      for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for command, p in sub.choices.items()}


def test_every_subcommand_keeps_its_flags_defaults_types_choices_and_required():
    table = _table(build_parser())
    assert list(table) == list(FLAGS)
    for command, flags in FLAGS.items():
        assert table[command] == flags, command

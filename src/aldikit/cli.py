"""Command-line entry point: one executable, one subcommand per stage.

Each ``_cmd_*`` handler returns ``(payload, text)``: the dict that ``--json``
prints and the text printed otherwise. Only ``main`` writes stdout or reads
``sys.argv``; it keeps the argv it parsed as ``args.argv`` for the manifests.

At module level this file imports only ``argparse``, ``json``, ``shlex``,
``sys``, the package and ``errors``. Each handler, and ``_estimators``,
imports the aldikit modules it calls, so ``--version`` loads no
other aldikit module and a subcommand loads (and, without bytecode caches,
compiles) only the modules it runs. Keep it that way: a module-level
import here is paid by every command.

Exit codes: 0 success, 1 I/O failure, 2 format/validation failure,
3 external-scorer protocol failure.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import FORMAT_VERSIONS, __version__
from .errors import AldiError, FormatError, ProtocolError

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_PROTOCOL = 3


# --estimator kind -> (each flag that only that kind reads, the first naming
# its input, with its add_argument keywords; factory(estimators module, input,
# args)); the input is a file, or the scorer command line for "external"
_ESTIMATORS = {
    "lexicon": (
        {"--lexicon": dict(help="lexicon file (lexicon estimator)")},
        lambda est, path, _: est.LexiconEstimator(est.load_lexicon(path)),
    ),
    "cmi": (
        {"--tags": dict(help="token-tag file, blank-line separated (cmi estimator)")},
        lambda est, path, _: est.PositionalEstimator(
            "cmi", [[tag for _, tag in s] for s in est.read_token_tag_file(path)]),
    ),
    "binary-di": (
        {"--labels": dict(help="sentence-DI labels, one per line (binary-di estimator)")},
        lambda est, path, _: est.PositionalEstimator(
            "binary-di", est.read_di_labels(path)),
    ),
    "external": (
        {"--scorer-cmd": dict(help="external scorer command line (external estimator)"),
         "--batch-size": dict(type=int, help="external scorer batch size"),
         "--scorer-timeout": dict(type=float, metavar="SECONDS", help="kill an "
                                  "external scorer that runs longer (default: no limit)")},
        lambda est, command, args: est.ExternalEstimator(
            tuple(shlex.split(command)), args.batch_size, args.scorer_timeout),
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _input_flag(kind: str) -> str:
    return next(iter(_ESTIMATORS[kind][0]))


def _estimator_files(args) -> list:
    """The file each estimator kind reads, None if unset; a scorer is no file."""
    return [getattr(args, _dest(_input_flag(k))) for k in _ESTIMATORS if k != "external"]


def _add_estimator_flags(parser, renamed: dict | None = None) -> None:
    """Declare ``--estimator`` and every flag of ``_ESTIMATORS``. A command
    that passes ``renamed`` (a table flag -> the spelling it declares) has no
    ``--estimator``: it builds every kind whose input flag is given."""
    if renamed is None:
        parser.add_argument("--estimator", required=True, choices=tuple(_ESTIMATORS),
                            help="which score producer to use")
    names = {}
    for flags, _ in _ESTIMATORS.values():
        for flag, keywords in flags.items():
            names[flag] = name = (renamed or {}).get(flag, flag)
            keywords = {"metavar": _dest(name).upper(), **keywords}
            parser.add_argument(name, dest=_dest(flag), **keywords)
    parser.set_defaults(estimator=None, flag_names=names)


def _estimators(args) -> list:
    """The kind that ``--estimator`` names or, without it, every kind whose
    input flag is given, built in table order. A flag that only another kind
    reads is refused rather than ignored."""
    from . import estimators

    names = args.flag_names
    built = []
    for kind, (flags, factory) in _ESTIMATORS.items():
        values = [getattr(args, _dest(flag)) for flag in flags]
        wanted = kind == args.estimator if args.estimator else values[0] is not None
        if not wanted:
            for flag, value in zip(flags, values):
                if value is not None:
                    raise FormatError(
                        "%s applies only to the %s estimator" % (names[flag], kind)
                    )
        elif not values[0]:
            flag = names[_input_flag(kind)]
            raise FormatError("the %s estimator requires %s" % (kind, flag))
        else:
            built.append(factory(estimators, values[0], args))
    if not built:
        inputs = "/".join(names[_input_flag(kind)] for kind in _ESTIMATORS)
        raise FormatError("%s needs at least one of %s" % (args.command, inputs))
    return built


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(args):
    from .pipeline import run_ingest

    summary = run_ingest(
        args.hit_file,
        args.output,
        column_map_path=args.column_map,
        strict=not args.lenient,
        command=args.argv,
    )
    text = "ingested %(hits)d HITs -> %(rows)d rows (%(output)s)\n" % summary
    for source, count in summary["rows_per_source"].items():
        text += "  %-9s %d\n" % (source, count)
    if summary["skipped_lines"]:
        text += "  skipped %d malformed line(s)\n" % summary["skipped_lines"]
    return summary, text


def _cmd_build_dataset(args):
    from .pipeline import run_build_dataset

    summary = run_build_dataset(
        args.rows_file, args.output, seed=42 if args.seed is None else args.seed,
        assignment_path=args.splits, command=args.argv,
    )
    return summary, (
        "built dataset: %(kept)d kept, %(discarded)d discarded -> %(output_dir)s\n"
        % summary
    )


def _cmd_agreement(args):
    from .pipeline import run_agreement

    report = run_agreement(args.rows_file)
    return report, (
        "items with 3 usable annotations: %(items)d\n"
        "ratings:                         %(ratings)d\n"
        "Fleiss kappa:                    %(fleiss_kappa).6f\n"
        "Krippendorff alpha (interval):   %(krippendorff_alpha_interval).6f\n"
        % report
    )


def _cmd_build_lexicon(args):
    from . import estimators as est_mod
    from .manifest import Run

    run = Run(args.argv, [args.corpus], [args.output])
    with open(args.corpus, encoding="utf-8") as fh:
        lexicon, counts = est_mod.build_lexicon(fh, min_occurrences=args.min_count)
    est_mod.save_lexicon(lexicon, args.min_count, args.output)
    run.close(tokens=len(lexicon), min_count=args.min_count)
    payload = {
        "tokens": len(lexicon),
        "distinct_tokens_seen": len(counts),
        "min_count": args.min_count,
        "output": str(args.output),
    }
    return payload, (
        "lexicon: kept %(tokens)d of %(distinct_tokens_seen)d distinct tokens "
        "(min_count=%(min_count)d) -> %(output)s\n" % payload
    )


def _cmd_score(args):
    from . import estimators as est_mod
    from .manifest import Run, write_output
    from .pipeline import read_dataset_file

    inputs = [args.sentences, args.from_dataset, *_estimator_files(args)]
    run = Run(args.argv, inputs, [args.output])
    (estimator,) = _estimators(args)
    source_path = args.sentences or args.from_dataset
    if args.sentences is not None:
        sentences = est_mod.read_label_file(args.sentences)
    elif args.from_dataset is not None:
        sentences = [text for (text,) in read_dataset_file(args.from_dataset, ("text",))]
    elif isinstance(estimator, est_mod.PositionalEstimator):  # it reads no text
        sentences = estimator.items
        source_path = getattr(args, _dest(_input_flag(args.estimator)))
    else:
        raise FormatError("score needs --sentences or --from-dataset")
    if not sentences:
        raise FormatError("%s contains no sentences" % source_path)
    scores = estimator.score_many(sentences)
    fmt = est_mod.format_score
    table = "".join("%d\t%s\n" % (i, fmt(s)) for i, s in enumerate(scores, start=1))
    if not args.output:
        return None, table
    write_output(args.output, [table])
    run.close(estimator=estimator.estimator_id, scores=len(scores))
    return None, "scored %d sentences -> %s\n" % (len(scores), args.output)


def _cmd_evaluate(args):
    from .evaluation import ScoredPair, rmse_report
    from .pipeline import read_dataset_file, read_score_file

    rows = read_dataset_file(args.gold, ("kind", "aldi", "split"))
    predictions = read_score_file(args.pred)
    stray = next((i for i in predictions if not 0 < i <= len(rows)), None)
    if stray is not None:
        raise FormatError("%s: id %d is not a row of %s" % (args.pred, stray, args.gold))
    pairs = []
    for row_id, (kind, aldi, split) in enumerate(rows, start=1):
        if not aldi or args.split not in (None, split):
            continue
        if row_id not in predictions:
            raise FormatError("no prediction for dataset row %d" % row_id)
        try:
            gold = float(aldi)
        except ValueError:
            raise FormatError(
                "%s: row %d has non-numeric aldi %r" % (args.gold, row_id, aldi)
            ) from None
        pairs.append(ScoredPair(gold=gold, predicted=predictions[row_id], subset=kind))
    if not pairs:
        raise FormatError("no gold rows selected")
    if args.split is None and len(predictions) != len(pairs):
        raise FormatError(
            "%d predictions for %d gold rows" % (len(predictions), len(pairs))
        )
    report = rmse_report(pairs)
    text = "%-8s %8s  %s\n" % ("subset", "n", "rmse")
    for name in ("control", "comment", "all"):
        cell = report[name]
        value = "-" if cell["rmse"] is None else "%.6f" % cell["rmse"]
        text += "%-8s %8d  %s\n" % (name, cell["n"], value)
    return report, text


def _cmd_dprime(args):
    from .evaluation import d_prime
    from .pipeline import read_score_file

    group_a, group_b = (  # each file's scores in id order
        [v for _, v in sorted(read_score_file(path).items())] for path in (args.a, args.b)
    )
    value = d_prime(group_a, group_b, sample_variance=not args.population)
    payload = {
        "d_prime": value,
        "n_a": len(group_a),
        "n_b": len(group_b),
        "variance": "population" if args.population else "sample",
    }
    return payload, "%.6f\n" % value


def _cmd_contrastive(args):
    from . import evaluation as eval_mod
    from .manifest import Run, write_output

    inputs = [args.pairs_file, *_estimator_files(args)]
    run = Run(args.argv, inputs, [args.output])
    estimators = _estimators(args)
    pairs = eval_mod.read_pairs_file(args.pairs_file)
    if not pairs:
        raise FormatError("%s contains no pairs" % args.pairs_file)
    rows = eval_mod.contrastive_matrix(pairs, estimators)
    table = eval_mod.render_matrix_tsv(rows)
    payload = {"rows": rows}
    if not args.output:
        return payload, table
    write_output(args.output, [table])
    run.close(rows=len(rows))
    return payload, "wrote %d matrix rows -> %s\n" % (len(rows), args.output)


def _cmd_speech(args):
    from pathlib import Path

    from . import speech as speech_mod
    from .estimators import read_di_labels
    from .manifest import Run
    from .svgplot import emit_plot

    inputs = [args.html_file, *_estimator_files(args), args.di_labels]
    run = Run(args.argv, inputs, [args.output, args.plot])
    (estimator,) = _estimators(args)
    sentences = speech_mod.segment_html_file(args.html_file, args.mode)
    di_labels = read_di_labels(args.di_labels) if args.di_labels else None
    document_id = Path(args.html_file).stem
    series = speech_mod.score_series(document_id, sentences, estimator, di_labels)
    if args.output:
        speech_mod.write_series_csv(series, args.output)
    if args.plot:
        emit_plot(series, args.plot)
    run.close(segments=len(series.points), mode=args.mode)
    payload = {
        "document_id": series.document_id,
        "estimator": series.estimator_id,
        "segments": len(series.points),
        "outputs": [str(o) for o in run.outputs],
    }
    text = "%(document_id)s: %(segments)d segments scored with %(estimator)s\n" % payload
    return payload, text + "".join("  wrote %s\n" % out for out in run.outputs)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aldikit",
        description="Build, score, and evaluate Arabic level-of-dialectness data.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    formats = ", ".join("%s=%s" % kv for kv in sorted(FORMAT_VERSIONS.items()))
    version = "aldikit %s (formats: %s)" % (__version__, formats)
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a HIT export into annotation rows")
    p.add_argument("hit_file")
    p.add_argument("--column-map", help="column map JSON (default: shipped map)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lenient", action="store_true", help="skip malformed lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build-dataset", help="group, clean, aggregate, split")
    p.add_argument("rows_file")
    splits = p.add_mutually_exclusive_group()
    splits.add_argument("--seed", type=int, help="split seed (default: 42)")
    splits.add_argument("--splits", help="article-to-split assignment file to replay")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("agreement", help="inter-annotator agreement statistics")
    p.add_argument("rows_file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_agreement)

    p = sub.add_parser("build-lexicon", help="frequency-thresholded token set")
    p.add_argument("corpus")
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build_lexicon)

    p = sub.add_parser("score", help="score sentences with an estimator", description=(
        "binary-di and cmi read no text: without --sentences or --from-dataset "
        "they score one line per label or tag sequence."))
    _add_estimator_flags(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--sentences", help="text file, one sentence per line")
    source.add_argument("--from-dataset", help="take texts from a built dataset file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="RMSE of predictions against gold")
    p.add_argument("--gold", required=True, help="dataset file")
    p.add_argument("--pred", required=True, help="id TAB score predictions")
    p.add_argument("--split", choices=("train", "dev", "test"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("dprime", help="discrimination between two score files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--population", action="store_true", help="divisor n, not n-1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dprime)

    p = sub.add_parser("contrastive", help="feature x estimator score matrix")
    p.add_argument("pairs_file")
    _add_estimator_flags(p, renamed={"--labels": "--di-labels"})
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_contrastive)

    p = sub.add_parser("speech", help="segment a saved HTML transcript and score it")
    p.add_argument("html_file")
    p.add_argument("--mode", required=True, choices=("br", "p"))
    _add_estimator_flags(p)
    p.add_argument("--di-labels-file", dest="di_labels", help="DI label per segment")
    p.add_argument("-o", "--output", help="series CSV path")
    p.add_argument("--plot", help="SVG scatter path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_speech)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    import warnings

    try:
        with warnings.catch_warnings():
            # a library warning is one line on stderr, without a source path
            warnings.showwarning = lambda message, *_: print(
                "warning: %s" % message, file=sys.stderr
            )
            payload, text = args.func(args)
        if getattr(args, "json", False):
            text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
            text += "\n"
        if text and sys.stdout is None:
            raise OSError("stdout is closed")
        try:
            print(text, end="")
        except UnicodeEncodeError:
            # a lone surrogate from a path, on a stdout that cannot carry it
            print(text.encode("utf-8", "backslashreplace").decode("utf-8"), end="")
        return EXIT_OK
    except ProtocolError as exc:
        print("protocol error: %s" % exc, file=sys.stderr)
        return EXIT_PROTOCOL
    except AldiError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FORMAT
    except UnicodeDecodeError as exc:
        print("error: input is not UTF-8: %s" % exc, file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

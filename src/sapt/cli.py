"""Command-line front end.

    sapt --dataset iris --replicas 4 --samples 8000 --proposal lg

runs the sampler on a registered dataset (or a label-last CSV path) and
writes manifest.txt, report.txt, posterior/trace CSVs and, when the
surrogate was active, surrogate_trace.csv into --out-dir, after removing
the files of those names an earlier run left there.

Exit codes: 0 success, 1 configuration or input error, 2 runtime
failure (including a sampling failure, which leaves a partial
report.txt).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .bnn import NetworkTopology, PriorConfig
from .data import (DEFAULT_TRAIN_FRACTION, REGISTRY, load_csv,
                   load_registered, split)
from .diagnostics import (compose_report, emit_posterior, posterior_accuracy,
                          write_manifest, write_surrogate_trace)
from .exceptions import ConfigError, ContractError, DataFormatError
from .orchestrator import SamplerConfig, run
from .tempering import KIND_LANGEVIN_MIX, KIND_RANDOM_WALK, ProposalConfig

PROPOSAL_FLAGS = {"rw": KIND_RANDOM_WALK, "lg": KIND_LANGEVIN_MIX}
RUN_OUTPUTS = ("manifest.txt", "report.txt", "histograms.csv",
               "surrogate_trace.csv", "posterior_p*.csv", "trace_replica*.csv")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so that a
    bad flag exits 1 with one error: line like every other configuration
    error; --help and --version still exit 0."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sapt",
        description="Tempered MCMC sampling for Bayesian neural network "
                    "classification, with an optional surrogate for the "
                    "likelihood.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--dataset", default="iris",
                        help="registered dataset name or a label-last CSV "
                             "path (default: iris)")
    parser.add_argument("--replicas", type=int,
                        default=SamplerConfig.replica_count, metavar="M")
    parser.add_argument("--samples", type=int,
                        default=SamplerConfig.total_samples, metavar="N",
                        help="total samples across all replicas")
    parser.add_argument("--swap-interval", type=int,
                        default=SamplerConfig.swap_interval)
    parser.add_argument("--surrogate-interval", type=int,
                        default=SamplerConfig.surrogate_interval)
    parser.add_argument("--surrogate-prob", type=float,
                        default=SamplerConfig.surrogate_prob,
                        help="per-step probability of the surrogate path, "
                             "in [0, 1) (0 disables the surrogate)")
    parser.add_argument("--max-temp", type=float,
                        default=SamplerConfig.max_temp)
    parser.add_argument("--proposal", choices=sorted(PROPOSAL_FLAGS),
                        default="rw",
                        help="rw: random walk; lg: gradient-drift mix")
    parser.add_argument("--lg-prob", type=float,
                        default=ProposalConfig.lg_prob,
                        help="probability of the gradient-drift proposal "
                             "inside lg mode")
    parser.add_argument("--lg-rate", type=float,
                        default=ProposalConfig.lg_learning_rate,
                        help="Langevin step h of the drift proposal: the "
                             "mean moves h times the tempered log-posterior "
                             "gradient, the noise sd is sqrt(2h)")
    parser.add_argument("--rw-sd", type=float,
                        default=ProposalConfig.rw_step_sd,
                        help="random-walk step sd")
    parser.add_argument("--burn-in", type=float,
                        default=SamplerConfig.burn_in_fraction,
                        help="fraction of steps in the tempered phase")
    parser.add_argument("--seed", type=int, default=SamplerConfig.base_seed)
    parser.add_argument("--out-dir", default="sapt-out")
    parser.add_argument("--thin", type=int, default=10,
                        help="posterior thinning stride for accuracy and "
                             "emission")
    parser.add_argument("--hidden", type=int, default=None,
                        help="hidden units (default: registry value; "
                             "required for CSV paths)")
    parser.add_argument("--train-fraction", type=float,
                        default=DEFAULT_TRAIN_FRACTION)
    parser.add_argument("--prior-var", type=float,
                        default=PriorConfig.sigma_sq,
                        help="Gaussian prior variance on every parameter")
    return parser


def _resolve_dataset(args):
    """-> (dataset_id, topology, train, test)."""
    path = Path(args.dataset)
    if args.dataset in REGISTRY:
        entry, train, test = load_registered(
            args.dataset, args.train_fraction, seed=args.seed)
        hidden = entry.hidden_units if args.hidden is None else args.hidden
    elif not path.is_file():
        raise ConfigError(
            f"{args.dataset!r} is neither a registered dataset "
            f"({', '.join(sorted(REGISTRY))}) nor an existing file")
    elif args.hidden is None:
        raise ConfigError("--hidden is required for a dataset given by path")
    else:
        train, test = split(load_csv(path, name=path.stem),
                            args.train_fraction, seed=args.seed)
        hidden = args.hidden
    topology = NetworkTopology(train.feature_count, hidden, train.class_count)
    return str(path), topology, train, test


def _manifest_entries(args, dataset_id, topology, config: SamplerConfig):
    return {
        "version": __version__,
        "dataset": dataset_id,
        "feature_count": topology.input_count,
        "class_count": topology.output_count,
        "hidden_units": topology.hidden_count,
        "train_fraction": f"{args.train_fraction:.17g}",
        "split_seed": args.seed,
        "replica_count": config.replica_count,
        "total_samples": config.total_samples,
        "steps_per_replica": config.steps_per_replica,
        "swap_interval": config.swap_interval,
        "surrogate_interval": config.surrogate_interval,
        "surrogate_prob": f"{config.surrogate_prob:.17g}",
        "max_temp": f"{config.max_temp:.17g}",
        "burn_in_fraction": f"{config.burn_in_fraction:.17g}",
        "proposal": config.proposal.kind,
        "rw_step_sd": f"{config.proposal.rw_step_sd:.17g}",
        "lg_learning_rate": f"{config.proposal.lg_learning_rate:.17g}",
        "lg_prob": f"{config.proposal.lg_prob:.17g}",
        "prior_sigma_sq": f"{config.prior.sigma_sq:.17g}",
        "base_seed": config.base_seed,
        "thin": args.thin,
        # a run's bits depend on these (README, Determinism)
        "numpy_version": np.__version__,
        "blas": "{name} {version}".format_map(
            np.show_config(mode="dicts")["Build Dependencies"]["blas"]),
        **{name.lower(): os.environ.get(name, "unset")
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _run_command(args) -> int:
    dataset_id, topology, train, test = _resolve_dataset(args)
    config = SamplerConfig(
        replica_count=args.replicas,
        total_samples=args.samples,
        swap_interval=args.swap_interval,
        surrogate_interval=args.surrogate_interval,
        surrogate_prob=args.surrogate_prob,
        max_temp=args.max_temp,
        burn_in_fraction=args.burn_in,
        proposal=ProposalConfig(
            kind=PROPOSAL_FLAGS[args.proposal],
            rw_step_sd=args.rw_sd,
            lg_learning_rate=args.lg_rate,
            lg_prob=args.lg_prob,
        ),
        prior=PriorConfig(sigma_sq=args.prior_var),
        base_seed=args.seed,
    )
    if args.thin < 1:
        raise ConfigError("--thin must be >= 1")
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for pattern in RUN_OUTPUTS:
            for stale in out.glob(pattern):
                stale.unlink()
    except OSError as exc:
        raise ConfigError(f"--out-dir {out}: cannot prepare it: {exc}") \
            from None
    chain, report = run(config, train, topology)
    write_manifest(out / "manifest.txt",
                   _manifest_entries(args, dataset_id, topology, config))
    if not chain.traces:
        (out / "report.txt").write_text(report.to_text())
        print(f"run failed: {report.failure}", file=sys.stderr)
        return 2
    summary = posterior_accuracy(chain, train, test, topology,
                                 thin=args.thin,
                                 elapsed_seconds=report.elapsed_seconds)
    (out / "report.txt").write_text(compose_report(report, summary))
    emit_posterior(chain, out, thin=args.thin)
    if report.surrogate_evals > 0:
        write_surrogate_trace(chain, out / "surrogate_trace.csv")
    print(f"dataset {dataset_id}: {train.sample_count} train / "
          f"{test.sample_count} test")
    print(f"train accuracy [mean, std, best]: {summary.train_mean:.2f} "
          f"{summary.train_std:.2f} {summary.train_best:.2f}")
    print(f"test accuracy  [mean, std, best]: {summary.test_mean:.2f} "
          f"{summary.test_std:.2f} {summary.test_best:.2f}")
    print(f"true evals {report.true_evals}, surrogate evals "
          f"{report.surrogate_evals}, likelihood calls "
          f"{report.likelihood_calls}, elapsed "
          f"{summary.elapsed_minutes:.2f} min")
    print(f"outputs in {out}")
    return 0


def main(argv=None) -> int:
    try:
        return _run_command(build_parser().parse_args(argv))
    except (ConfigError, ContractError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

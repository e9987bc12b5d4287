"""Command-line entry points for the pipeline stages."""

from __future__ import annotations

import os
import sys

from . import BLAS_THREAD_VARS

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# the GEMMs are small, and extra threads on a busy host slow them tenfold.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import click  # noqa: E402
import yaml  # noqa: E402

from . import pipeline  # noqa: E402
from .txn_core import IngestError  # noqa: E402

EXIT_CONFIG_ERROR = 2
EXIT_MISSING_ARTIFACT = 3
EXIT_DATA_ERROR = 4


def _parse_overrides(pairs: tuple[str, ...], seed, out_dir) -> dict:
    overrides: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise pipeline.ConfigError(f"override must be key=value: {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = yaml.safe_load(raw)
        except (yaml.YAMLError, ValueError):  # ValueError: a date like 2025-02-30
            overrides[key] = raw
    if seed is not None:
        overrides["seed"] = seed
    if out_dir is not None:
        overrides["out_dir"] = out_dir
    return overrides


def _run(stages, config, set_, seed, out_dir) -> None:
    try:
        cfg = pipeline.load_config(config, _parse_overrides(set_, seed, out_dir))
    except pipeline.ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    try:
        for name, path in pipeline.run_pipeline(cfg, stages).items():
            click.echo(f"wrote {name} -> {path}")
    except pipeline.MissingArtifactError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_MISSING_ARTIFACT)
    except (IngestError, OSError, ValueError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA_ERROR)


def _stage_command(name: str, help_text: str, stages):
    @click.command(name=name, help=help_text)
    @click.option("--config", type=click.Path(exists=False), default=None,
                  help="YAML config file; defaults are used if omitted.")
    @click.option("--set", "set_", multiple=True, metavar="KEY=VALUE",
                  help="Override a config field (dotted path).")
    @click.option("--seed", type=int, default=None, help="Global seed override.")
    @click.option("--out-dir", type=click.Path(), default=None,
                  help="Output directory override.")
    def cmd(config, set_, seed, out_dir):
        _run(stages, config, set_, seed, out_dir)

    return cmd


@click.group()
def main():
    """Infer restaurant cuisine types from payment-card transaction logs."""


for _name, _help in [
    ("synth", "Generate a seeded synthetic transaction log with ground truth."),
    ("label", "Weakly label restaurants from their names."),
    ("features", "Extract statistical feature blocks per restaurant."),
    ("embed", "Train micro/macro embeddings and compute name embeddings."),
    ("train", "Train the classifier on weakly labeled restaurants."),
    ("eval", "Evaluate the trained model and write metric reports."),
    ("report", "Write the per-cuisine statistical summary."),
]:
    main.add_command(_stage_command(_name, _help, [_name]))
main.add_command(_stage_command("pipeline", "Run every stage in order.", pipeline.PIPELINE_ORDER))


if __name__ == "__main__":
    main()

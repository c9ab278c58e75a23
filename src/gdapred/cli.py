"""Command-line entry point for the staged experiment pipeline."""

from __future__ import annotations

import argparse
import gc
import logging
import sys

from . import __version__
from .errors import GdapredError
from .pipeline import STAGE_FUNCTIONS, PipelineConfig

logger = logging.getLogger("gdapred")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdapred",
        description="Gene-disease association prediction over "
                    "multi-ontology knowledge graphs")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="JSON pipeline configuration")
    common.add_argument("--out", default=None,
                        help="override the configured output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override every configured seed (stage seeds "
                             "become SEED, SEED+1, ...)")
    common.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage, function in STAGE_FUNCTIONS.items():
        # the first docstring line; Python drops docstrings under -OO
        summary = (function.__doc__ or "").partition("\n")[0]
        sub.add_parser(stage, parents=[common], help=summary)
    return parser


#: whether ``main`` has frozen the objects that outlive every stage
_frozen = False


def main(argv=None) -> int:
    global _frozen
    if not _frozen:
        # The imported modules, some 20,000 objects, live as long as the
        # process. Frozen once, they are left out of every later full
        # collection, which would otherwise scan them all and add a few
        # milliseconds to whichever stage it falls in.
        gc.freeze()
        _frozen = True
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = PipelineConfig.from_file(
            args.config, out_override=args.out, seed_override=args.seed)
        STAGE_FUNCTIONS[args.stage](config)
    except GdapredError as err:
        logger.error("%s", err)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

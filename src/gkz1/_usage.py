"""The argparse parser of the command line, kept off the import path: only
help and usage errors reach it, as gkz1.cli._plain reads every plain line."""

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz1",
        description="Exact series solutions of codimension-one GKZ systems",
    )
    # the options every command takes, declared once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="problem file (.json or .toml)")
    common.add_argument("--window", help="z window as LO:HI")
    common.add_argument("--u", help="parameter shift u as comma-separated rationals")
    common.add_argument("--lift", help="integer lift as comma-separated integers")
    common.add_argument("--r", type=int, help="requested log degree")
    common.add_argument("--no-verify", action="store_true", dest="no_verify")
    common.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "configuration summary: relation, volume, resonance"),
        ("exponents", "fake and normalized exponents with multiplicities"),
        ("solve", "construct the log series solutions"),
        ("verify", "construct solutions and report operator certification"),
        ("classify", "regularity and maximal-unipotent-monodromy test"),
    ]:
        sub.add_parser(name, help=help_text, parents=[common])
    return parser

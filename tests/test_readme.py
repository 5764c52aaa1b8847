"""The README's usage examples parse with the current CLI and config,
and its config key lists are the config fields, so a removed flag or
config key cannot leave a stale documented example or key."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

from agsevnet.cli import build_parser
from agsevnet.network import NetConfig, config_from_text
from agsevnet.train import TrainConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```\n(.*?)^```$", README, flags=re.S | re.M)


def test_cli_examples_parse():
    (block,) = [b for b in BLOCKS if b.startswith("agsevnet ")]
    parser = build_parser()
    for line in block.splitlines():  # optional flags are shown in [brackets]
        argv = shlex.split(line.replace("[", "").replace("]", ""))
        assert argv[0] == "agsevnet", line
        assert parser.parse_args(argv[1:]).command == argv[1], line


def test_train_cfg_example_parses():
    (block,) = [b for b in BLOCKS if b.startswith("# train.cfg\n")]
    config = config_from_text(TrainConfig, block)
    assert config.seed == 7 and config.net.patch_shape == (32, 32, 32)


def test_key_lists_match_the_configs():
    train_keys = re.search(r"The training keys are (.*?);", README, flags=re.S).group(1)
    net_keys = re.search(r"network keys are (.*?);", README, flags=re.S).group(1)
    assert re.findall(r"`([\w.]+)`", train_keys) == [
        f.name for f in fields(TrainConfig) if f.name != "net"]
    assert re.findall(r"`([\w.]+)`", net_keys) == [f"net.{f.name}" for f in fields(NetConfig)]

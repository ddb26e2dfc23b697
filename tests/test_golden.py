"""Byte-identity gate: the README CLI flow must write the same bytes.

Runs synth (target seed 3, prediction seed 4) -> lift -> route -> losses ->
schedule -> eval through `cli.main` at 64x64 with T=4 frames, and compares
the SHA-256 of every artefact with digests recorded before the lift was
reworked into a single pass per trajectory. A second case runs the same flow
at 128x128 with T=3 frames (target seed 7, prediction seed 8), a 32x32 token
grid; its digests were recorded before the expert-axis reductions in
`routing` and `priors` were rewritten as column folds. A third case runs the
64x64, T=4 flow (target seed 11, prediction seed 12) with `--config`
`{"stride": 8}`, an 8x8 token grid, so that a second pooling stride is
pinned; its digests were recorded before the field layer's channel
statistics, normalization and block pooling were rewritten as column passes.
A fourth case runs the 64x64, T=4 flow (target seed 13, prediction seed 14)
with `{"token_dim": 33}`. With more than 32 token channels, one product
batched over the perturbed predictor weights rounds differently from the
per-evaluation product (OpenBLAS 0.3.31), so this case pins the grad check's
logits where such a rewrite would show; its digests were recorded before the
src and cp checks were made to recompute only the perturbed logit column.
A fifth case runs one frame (T=1) at the non-square 32x48 (H x W; target
seed 15, prediction seed 16). It pins the frame axis order of the lifted
(T, H, W, 9) stack and the single-frame paths: no motion, so a zero motion
peak, and an src check with no frame pair to compare. Its digests were
recorded before a trajectory was lifted into one stacked array. A sixth
case runs three frames at the non-square 40x56 (H x W; target seed 17,
prediction seed 18) with `{"stride": 2}`, a 20x28 token grid of 2x2 blocks,
so that the smallest pooling blocks are pinned; its digests were recorded
before the routing grids were pooled from the tool's blocks only.

Three more cases were recorded before a lifted trajectory was made compact
(part labels, depth and per-part tables). They pin branches the default
budget and poses never reach. The seventh runs 64x64, T=10 (target seed 19,
prediction seed 20) with `{"rho_full": 0.02, "rho_light": 0.05}`, so tool
tokens land in the light and reuse tiers. The eighth and ninth lift a
composite trajectory written through the library (`write_library_trajectory`,
64x64, T=4) and run only the trajectory commands, with seed 1. In the eighth
the base is 6 mm deep: the tool fills frame 1, so that frame has no
background pixel, and frame 2's mean significance of 0.733 crosses `TAU_H`,
so its refresh interval is 1. In the ninth the base is 1 m to the side, so no frame
holds a tool pixel: the channel statistics are 0 and floored at a std of
1e-6, routing statistics fall back to all tokens, every significance map is
constant (0.5), which forces refreshes on frames 1 and 3, and the physical
prior is uniform.

A tenth case runs the 128x16 (H x W), T=4 flow (target seed 21, prediction
seed 22) with `{"stride": 16}`, an 8x1 token grid. With one token per grid
row, numpy multiplies each token as a one-row product, whose bits differ
from a multi-row GEMM's (OpenBLAS 0.3.31), so this case pins the grad
check's per-row products at W' = 1. Its digests were recorded before the
grad check's evaluators were made to work on distinct token rows.

An eleventh case runs the 64x64, T=4 flow (target seed 23, prediction seed
24) with `{"progress": 0.575}`, half way between the capacity schedule's
`dense_end` and `sparse_start`, so the fusion weights are a blend of the
dense and the top-k weights; every other case runs at progress 1.0, fully
sparse. Its digests were recorded before dataclass fields that no command
reads were deleted. A twelfth case runs the same flow (target seed 25,
prediction seed 26) with `{"progress": 0.2}`, below `dense_end`, so the
fusion weights are the dense gate probabilities (`blend_factor`'s dense
return). Its digests were recorded before the reachability gate was made to
check statements.

Each case also runs `run` in place of the four trajectory commands, and
compares each file it writes into its one directory with the digest
recorded for the command that writes the file: `run` is those four
commands' writers over one pass, so it adds no digest of its own.

The digests are pinned to the numpy and BLAS build they were recorded with
(numpy 2.4.6, OpenBLAS 0.3.31). Another numpy or BLAS may round a float differently
and change a KVAF or CSV byte without any change to the program; re-record
them then with `python tests/test_golden.py`, on the commit before the
change under test.
"""

import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from kvacontrol import cli, formats, kinematics
from kvacontrol import scheduler as sched

GOLDEN = {
    'eval/metrics.csv': 'a3dd05b6fa276c3d868a6eb0a1e6cdc12d4484d5f01e0d6ac736d82a0483d689',
    'lift/channel_stats.csv': 'a218bcc3c6bf4f9ca618dc9a9cb7c52effed2acee976c322c3075f0318cb026a',
    'lift/field_0001.kvaf': 'dc1d78e855ead43acc28bcc556d7a7e8e234ac87c844dbe6fa1cbe6114374adb',
    'lift/field_0002.kvaf': '65b5e2e25684754b238ed8d652cefed8426b36f667189df21a61337eaa57b90c',
    'lift/field_0003.kvaf': '2cb60d64d8fa8087ecd672faf8bec08ff924ffb4f1f2b4d323dd0d261d1d7bc1',
    'lift/field_0004.kvaf': 'f2145188b9a95f58a462dfc7bf9cef6278ea798b77147971bc5826fdc669a2d1',
    'losses/grad_check.csv': '417fe42b94605634f2e1bb8c167f960e315e0f296b0eef259212be42b54f99da',
    'losses/losses.csv': '133e02ac7a40ab30bad790bd08634e74bf62b6841819aa8bd1a9493621b76dff',
    'pred/masks/frame_0001.pgm': '331b649a22136b3d28748ecda3165e3931a55c2e7ae8f2a7ce20d13776d3ddb8',
    'pred/masks/frame_0002.pgm': '53e523fff73f8c24ab9125bcd2a91c91207587ee2e094d041fe76cbcad59a284',
    'pred/masks/frame_0003.pgm': 'fe68dd1f6da3a6d93a43e84b16ab910803f34a76b186b62add25e6a9ec55bfae',
    'pred/masks/frame_0004.pgm': '569ebc4e6fe365067d08661435a68baaef3dafb29cfb508ed779e2e159668fec',
    'pred/trajectory.txt': 'ddbba6ea9c8d0947a3865ed8300af5a4d9cc815b2a846403407952dc1f629668',
    'route/routing_stats.csv': '4ca66a73a82042721feaec485f9d9a4677aa79fe743488027c86cf7cd6340a1a',
    'schedule/cost_summary.csv': '633fc1dec6634c6fd96a593ed6ead0a27a8e91809c4c50469bb5ba5390bb3515',
    'schedule/execution.csv': '4d9ae7d82bff6750245af4b657f8e6d883e12d263b15f3893c8f3988887c694c',
    'target/masks/frame_0001.pgm': '11ae15931b9abe37d5ce296cd6657f3e8cf007cb79ef8adc6617b6deedc20802',
    'target/masks/frame_0002.pgm': '7d4af71c916456ad1118f080e245ab11f7bb58a745f218f9161e8b3867b4fa64',
    'target/masks/frame_0003.pgm': '66cd02ef0dcfe5da2c17f0fc78808d49821879515dfa00845ef82d4ebca286ba',
    'target/masks/frame_0004.pgm': '3888d1c99cee78c2a5666eab2720b3a53e21ec733f76d3a19c4c5da2bac89049',
    'target/trajectory.txt': 'b2f26881873e42f30f7c53043e0c2ff950f18eaac812b17830381d6f875bc74b',
}

GOLDEN_128 = {
    'eval/metrics.csv': 'ebe7d9f9806601311436f2cad0a592431cef30187a9981cb9ad2b2c81e122c14',
    'lift/channel_stats.csv': '5469b2760573a9d226f104333242f28d3ee1e8e814175957611b9d6d3461df0f',
    'lift/field_0001.kvaf': 'c0d88381b22e5ec54fbf8a74e54827908083f65c083a49ae02f7c4e1a7e0d19d',
    'lift/field_0002.kvaf': '7ed4d2985fd582c4d2711b645e846c50e34cad99fb6243c97c8e105e15a6e850',
    'lift/field_0003.kvaf': 'ee5ff89a7103482e3f8b21c6550c4cfd7a842677443a48ce06d7f8737b484fd2',
    'losses/grad_check.csv': '314c6c3f46adc1294252867c3e4c72d78556db44bf2a7f36406c15193b890bad',
    'losses/losses.csv': 'b1262529f97685a145831e78a8556a67618553dd1f9bf57218264217dc00ab07',
    'pred/masks/frame_0001.pgm': '235248bb395dbcf199885bebc8cb72efe301911200f56f54e2fb36e5cf471fda',
    'pred/masks/frame_0002.pgm': '5a91ef10d185ea0464e745ceff2baca2dba001526c81a894b5fc25ffc5066bf2',
    'pred/masks/frame_0003.pgm': 'd77d4ecce6dc8c238f541aeb6f82a0e9b176b2e0a6b92e7d032ae7cddb622787',
    'pred/trajectory.txt': 'ac497655f4040c32b6b750a024792cda3a0b8e1fc9b085f0e0e18c45b22e4123',
    'route/routing_stats.csv': '0bf2a9f55c52a363abc74e155a032b44176e9e00ff056a2ff9306e42f2de675f',
    'schedule/cost_summary.csv': '4d6bf5040d9d1a2d441f9e3f90886317f40dba1d8314a7a6ecf12d512ecdbb59',
    'schedule/execution.csv': '90c45670b28b8105bc555db80b5ae49087687cc618bab829dcc8d07c292c14ac',
    'target/masks/frame_0001.pgm': '14eb3120f060ff9c49cc25fc3edd5e8c793959df37711a78870d8a3bb3de0d10',
    'target/masks/frame_0002.pgm': '7944057364237fa448d540f37d887b5c65c702c03d19cc681064ac1347c5bdfa',
    'target/masks/frame_0003.pgm': '10e5b9f64adaf5ad807f752e914b4a5160f97957ad4a40593e021e74dfca541f',
    'target/trajectory.txt': '6be414603e7c3613f013be6744babfce8fe7daf9182f15293a75b233ecdba64c',
}

GOLDEN_STRIDE8 = {
    'eval/metrics.csv': '1b79150c0f9d60acaef22057e2943a3b9bacaef0af07e1484d5bba1aef79debf',
    'lift/channel_stats.csv': '9d666efe1a91ed254aa1bfd32e430156cac943c777aff2bab3f965220c0c3257',
    'lift/field_0001.kvaf': 'ef81648c605e9bd1c17d1f1c9599dbadd0738726a732e258fe7a6b32bf2f8978',
    'lift/field_0002.kvaf': 'e56e5ab4bcb63d0d57f888ec261e7de2853e637df80c531ddc2d9e7587d93018',
    'lift/field_0003.kvaf': 'fcdc90b2bb06365603b0965f15db9680a53679c26e2fd3fef2c4ccd0aa4e4ca6',
    'lift/field_0004.kvaf': '6c5fe227e9b3a7851686c3f42680d280ab932e1ab04aafb35636be61be5489b2',
    'losses/grad_check.csv': '4194654ee6fc58a03a01cc8b36cab1b972c9c7ff4d2a44451c0e1d1cb776e5ed',
    'losses/losses.csv': '79ceaefda316f54996b88b683c0fc19034058301c3cbeb7958b0cad6a61efabe',
    'pred/masks/frame_0001.pgm': '703251cc29ce411c854bd9b8668dca6666bbc804182d4bad0b342db1e23414fc',
    'pred/masks/frame_0002.pgm': '6d7f0b3b51417f0c1818382becf14f7184fca29d4eb8f1602aa7b4cfc6ad403d',
    'pred/masks/frame_0003.pgm': 'd26b189f7204bf2a887a956da545487636f3b5beab490c08eee88bfa04fe67e6',
    'pred/masks/frame_0004.pgm': 'be8eee4b9a4031b59c2ec1626643343af4e99a0eff337489a268624bceb2fd84',
    'pred/trajectory.txt': '41ec9d4d397bec6e1156670e8e2b1a9bd3d78f5d824e21e32287e78b9bec0dc4',
    'route/routing_stats.csv': 'da45cdf2dfeba7bc2a648d9265074a056e12d73dcfb648d20404fd885f80c7d9',
    'schedule/cost_summary.csv': 'e5eb08d1e2a64e6080a0b9cf78fa88aa63bf57b4cb5bf32e63c0af165e50b7e2',
    'schedule/execution.csv': 'd267c8a2008a93f8085d6ef86ad5ddca69c881bf3aa3b00d2d281ecdc1b9873b',
    'target/masks/frame_0001.pgm': '90ef72fb4d1456cd685da61a8e324fdb713f7f7b3c21ee32b2c7ec014561fbf7',
    'target/masks/frame_0002.pgm': '6379b144cc88c30e601b0b62bc1fe96faf409bd02ce41ed85d9961f1f1cdc1d5',
    'target/masks/frame_0003.pgm': '5ed42be0e1130d42615f2e4f78a093b540125b366497dd39455fa43c11bff0cb',
    'target/masks/frame_0004.pgm': 'f828918b87cfcb62098a8188e2214af4f48f957d778991afccd10ec1c8434114',
    'target/trajectory.txt': '37b6f32a19721b903a65adaee17d352c194cb4a834c47ea57dc1b4793838dcc6',
}

GOLDEN_TOKEN33 = {
    'eval/metrics.csv': 'b6728fe8107af40d7b4faf328dde0803d541e9445223d856b8ca276b9c096bed',
    'lift/channel_stats.csv': '8d271cae54a6a8791d609ed730811daeb14ddc21761e78eda6675eef70ff97cb',
    'lift/field_0001.kvaf': 'fd0846574311c2e62cc2650af006fa037d1a875cd310817f8535987f6c2478d6',
    'lift/field_0002.kvaf': 'cf64f1ae5b2e2e5c9078e38f5fa0f5770957777150c0de4ab1db8845fe24470a',
    'lift/field_0003.kvaf': '045a994b402e0a7c47c79a83a7ac68116bc4eae9b97e7220b7b2a4feb371c20d',
    'lift/field_0004.kvaf': '5fd86af6be0d049c3a075b54db9da4f9743152eb9f7a561e1f4e49b3b5b4efe7',
    'losses/grad_check.csv': 'ffb72fa05f68c5da567bf0afe874e05deb10b185f0acb5741a6506a7657ec6fe',
    'losses/losses.csv': 'fb67925c77ac3ffafcde9e6d8b3330a8c9375cb944f2fc98057070427af31142',
    'pred/masks/frame_0001.pgm': '51b5b835f777c3632f52678cb80abaeb61601183fe5161f1d0201143c72183c8',
    'pred/masks/frame_0002.pgm': 'ef73b8f60ba5998c0f4764155556eafecff41ca1d7896aec4578d5eed8fbc8d6',
    'pred/masks/frame_0003.pgm': 'e2f3b4275d29571d2a82e24420b11eb01994013caeeabbf2317d2ebe6b5edc14',
    'pred/masks/frame_0004.pgm': '72cb609a0c15100a7e729c289adc7b5b8503d025e1f253cb67b7a3c684580cfb',
    'pred/trajectory.txt': '794aa73165fedda61fdba8f2f94894f82133517a677a522d25849e201089da69',
    'route/routing_stats.csv': '285fa6cdb51de298d2001b88de6c76a585d551ab2840b73942c1e0907f07fd04',
    'schedule/cost_summary.csv': '633fc1dec6634c6fd96a593ed6ead0a27a8e91809c4c50469bb5ba5390bb3515',
    'schedule/execution.csv': '4977bf3c1107579835016d8dcff74557dda431123c4536f2dd573d81fab8667b',
    'target/masks/frame_0001.pgm': 'd92c9bde1b47d6ad4939009682d4a71151160416a3355aced698ce1860057083',
    'target/masks/frame_0002.pgm': 'ea173ade58bf8a0da12912cd247cbc12db9d7a2be659a371f087f2e05d794f76',
    'target/masks/frame_0003.pgm': 'e891c283c04c11679fe937d9bb82b6527724835461ac5b0922b7180a345edfd2',
    'target/masks/frame_0004.pgm': 'b28c604e4f3849ee8f8e8b0ed3a153d0cd8f1b242001b52183075ea79c6e2870',
    'target/trajectory.txt': '1e6e005c052245689b85459d9ba4d6c6e4897a64f293f3a5580b1d394c37d69b',
}

GOLDEN_32X48_T1 = {
    'eval/metrics.csv': '8f79ee790bbba4a3170327f25d73a1d006dfc95a428e5c124a38aa07a4512cee',
    'lift/channel_stats.csv': '0120301f5337fc0563c417f63c738f100835440adb407114b8bc7c7b637e4f8e',
    'lift/field_0001.kvaf': '97f050f30ad4aa6848659894b701a275a1568a5581664cf5cd82dea956021a40',
    'losses/grad_check.csv': 'a61f1d5c45d2f6ebbe9849cd6932d4de282e1512aa1e3499054f2268ccbe0afd',
    'losses/losses.csv': '143f1e01d8c0ca1ab9874b2342db2c9b8993e5563439b21c384de8f6b298a634',
    'pred/masks/frame_0001.pgm': '20c87f4263c2f6d02d1a57a20b605cd76fc4273fb251f713f3ff483904d6d7a5',
    'pred/trajectory.txt': '114189bc6d6ae821ed303b4fc1b09da2e9d250805cc47c1a70a28cb3ef93a403',
    'route/routing_stats.csv': '566a4506ac4bf27073c0df7ac85ac644549da4130a052c9af6d7c686fe980e38',
    'schedule/cost_summary.csv': '0e1ef113eb4837b76116e798ed9015315ca7b3285a86bbdf5f8052f315192fe6',
    'schedule/execution.csv': 'fb639aad2896adff8049adaccef72401c69394895a197d3591d01bf7bb3951ef',
    'target/masks/frame_0001.pgm': '73ff3b105485af453660711c8cd45c92e4e88cbe3b579cc45ab14a38be7ca866',
    'target/trajectory.txt': 'cd7157c9f95c92056e3653affe73bfe5f887c439428e7a41525363391b4a778e',
}

GOLDEN_40X56_STRIDE2 = {
    'eval/metrics.csv': '74a2b1ad76e859e984fc8e2879d515fc9e85d1a8d35f19b1ad447094a73adc8f',
    'lift/channel_stats.csv': '87ce0962fcc1e12f529eddc7a8114b72442c2e4e94edb9c76b8dd2da520a6463',
    'lift/field_0001.kvaf': '51a3691f9836360bd8897a0cc3aeaaff4da95a3002a65874d46c0d02a24671a4',
    'lift/field_0002.kvaf': 'b5e7a52148968b95b37d462a6b4268178673788d6ca161a3d66a9972332b4bb5',
    'lift/field_0003.kvaf': '644c1d74dbf459daa66cd6279e446e7a44eb484c1e6c8e95dac46b2d21da91f3',
    'losses/grad_check.csv': '50ca4ab5f9d3597f89bd2baa1bcd0440f6f7e7bccdd0196f2eb5d9e1eb0ec9a3',
    'losses/losses.csv': 'd7ced3bd8a4d9fb269f2d08c38c6f5385c049b7d75b3b8855c4352cf1273f959',
    'pred/masks/frame_0001.pgm': 'd9e7d9456a0b70c5788e87393032e55133b0df9ea7ba2e8b27cf0484c61e26e8',
    'pred/masks/frame_0002.pgm': '58d5ce96516ba207e76aa7177635c530e170b6afafe081a69720ab41ce922c93',
    'pred/masks/frame_0003.pgm': 'df80a5d53ab1843147ae3d2f27b97282009c4ae42475385291b83df3544a85b3',
    'pred/trajectory.txt': '5770845c3dff72537fae86ac86c0521c0c1e88c4cd6ec38a34df6b387c31a9ba',
    'route/routing_stats.csv': 'f38202de41930c26892dffa9a59a69b04215fa5c06df21ad42a783997cfca4ae',
    'schedule/cost_summary.csv': 'efc04c4c59ee6a29b4872e14bfefb14e82b4b24323943d0354d7e112c2d9c2a6',
    'schedule/execution.csv': '1bdf76aff81f7dfe0ed52547cc202c266c74772785f4e84409e9c611317c0584',
    'target/masks/frame_0001.pgm': '1ef4406092f6846b7a22a8be57af18e267a43871258886f41785c96a57666466',
    'target/masks/frame_0002.pgm': 'd585176fa0e4da4e05215addf770ed101e81e09394c2b73d24a65a979e4d6fd6',
    'target/masks/frame_0003.pgm': '6e9a4284163673e1efd7d3c0eb06c4014b3a4a6b4e53dd898d7d528a12829d3f',
    'target/trajectory.txt': '9ba5ad3fd9226c8d28a4d50866452b8ea56c2024a7ae0b35e1be12e09015e745',
}

GOLDEN_BUDGET = {
    'eval/metrics.csv': 'eaedd352b7dbf0cb77b83f5e885f4bcd53a52f7e8c62095e37ad725621a18b28',
    'lift/channel_stats.csv': '512029dd597085e5a0497e2118d15bf3b747723c6aedf3651b8e45ccaed9ece7',
    'lift/field_0001.kvaf': '777f232eb52ce0a14087a44d4ec12cbb9700a8de90183f597e6e59a267df35e3',
    'lift/field_0002.kvaf': '72b0370b2d95727e99901ac4542ba7f83e43591a558553eff7d2a7285b8997b5',
    'lift/field_0003.kvaf': '87fe0b2ffd4a5fc01ef241b8a53958a5fa993dd7a49baca94e6736ce0268ed84',
    'lift/field_0004.kvaf': '1d31a5331f930bd022c4ee8c39c29767be1e28008a7d8ccab170dde2f82d8277',
    'lift/field_0005.kvaf': '9df51f6b5bd2c5cbdcf9f0bac70050eac5ac1793d11f9532f0b830ca788d7f49',
    'lift/field_0006.kvaf': '7ae3cb368e05b16f536d52e87ffac32c87938a18416d2cacd0e7ce1282a3db60',
    'lift/field_0007.kvaf': '07b5f2886d8e8ffcb5fc31c34b66303adfe91a2b78abd96ed5a3e6e23e0a7e31',
    'lift/field_0008.kvaf': '04f4e385479dd3b81a34fe07a2cecb63f0caad333d728393a045dd7f52eecde7',
    'lift/field_0009.kvaf': 'e291fb4b52960fa1c42855e18485869231e7c1fd79fc95b39d6105d0e56afce8',
    'lift/field_0010.kvaf': '2e595042c8274f33359e903e8a1a7ca1a449115542c57536054708ba977bdfd1',
    'losses/grad_check.csv': '3698752ae9ed908977cb3c4875ab4b2adfed1072882c79580ee4d5fd1dd2b570',
    'losses/losses.csv': 'f27c5600dc1005d7ddb9d2f249b79123537511865d3e76390f3f2d82753fd120',
    'pred/masks/frame_0001.pgm': 'e2c9f228ff895ce78a0d1f684cab2ecd54e8b804f96ccb7c66fce29ae3cdb54c',
    'pred/masks/frame_0002.pgm': 'e5703f5c4d41687f3bbd8b89b2cdd532621e737a54d9548ad02056ce03a5b07b',
    'pred/masks/frame_0003.pgm': 'd3ede436ffcc7e09afcecad0b221ad4e2aeb1acf4f8bb318e70c85e96becd7e7',
    'pred/masks/frame_0004.pgm': 'd5ed815d7ed1d0742e11ba179d478b375ca10044e5e4bd5ae4012ac331afc40e',
    'pred/masks/frame_0005.pgm': '55f90060f2eb7c4ed9e016028250dffa445182ac44a7d88f5f8caf1ffc76243a',
    'pred/masks/frame_0006.pgm': '52ad053872ee7649118ccde6737c1dd9f468787deb25c03ceda9fe15a508c03c',
    'pred/masks/frame_0007.pgm': '0a280a6782765e6948b4aaa28b0419ceb5cf7e7784bfdbd6172a3b847f800414',
    'pred/masks/frame_0008.pgm': '7f6ce8276acb1dec499a7afefbe8ada34c2426f05e643e55eb3e4d64a920c91a',
    'pred/masks/frame_0009.pgm': '2b828806739250fb101e5b1b098d5f12cf09aebc46ae1eb3633feb0af3986102',
    'pred/masks/frame_0010.pgm': '382d0f1b14b8ffd1d361ad97cae1356b84116064846573b760e8e2807aa11808',
    'pred/trajectory.txt': '42e76f04220897d1bc2eef1ff5b606c5adc30b4139bf3ef2a70034019a635f45',
    'route/routing_stats.csv': '45657ff8313c1248e9faeb719a92cd0899d49919417a352e1b1fa719c7589c64',
    'schedule/cost_summary.csv': 'a037039c6680b80fa6299ffd963739893026cbbdfdbcac3a998c387893bbb68d',
    'schedule/execution.csv': 'cd72ecad75ef7fc54643b25dbf8c9fcbf6638ab7fa760ed0c2618d064c4134a2',
    'target/masks/frame_0001.pgm': 'ec3b37386606e998704dfcea4f75770097dc8c56af573a9ae9c1ad922e73e900',
    'target/masks/frame_0002.pgm': '3848d17f327d52a55b8b163ab38f60fa0a8807c5c1597ea1410d04f3f4fe9a5f',
    'target/masks/frame_0003.pgm': '26f0b1c8c6816604d955ce6750a299a763607d8db9647c6769ead497d6226d7a',
    'target/masks/frame_0004.pgm': '62bdfb8ee17eb630882a986681f70392402f2903bc3328311f46e6629ee4620a',
    'target/masks/frame_0005.pgm': 'd1b74ca941b236317cbc0a066046a6246b0d5f9f276ff35c8eed574032b99a8f',
    'target/masks/frame_0006.pgm': '220ed70fbc2bef461c5ad41c9ff2501fd5ba72b2cbea462d77f3e312f742ed7d',
    'target/masks/frame_0007.pgm': '54fc9a4a3162844c10594465d4fa252402171806399c81a8e2dee193e59cada4',
    'target/masks/frame_0008.pgm': 'dafda1a13aa93cdc7c5baf82957252ef29a510b8039c2c56600d6ecdaa9aa616',
    'target/masks/frame_0009.pgm': '48caf4af6873039ddeeff4b517b9a3bcfe19bd907a793fc8f29a7e6b41b4abf6',
    'target/masks/frame_0010.pgm': '413a4d0fa3f0a00bf682dda8fc03325ff7ecd9edc9e4646302bc96883cc2c82a',
    'target/trajectory.txt': 'd2dd8c6e367783081b6f94c06ce03136ee28169195f93b39038c046097078822',
}

GOLDEN_NEAR_BASE = {
    'lift/channel_stats.csv': 'ab5b6a763cd9226c4ee054d5f3d53237fb99fc129b5f90290a53830c3e75d3e9',
    'lift/field_0001.kvaf': '13c08b646213f06c1d4c31f2eae4c152c1a33afc7509ef668771d5f3d6029f9c',
    'lift/field_0002.kvaf': '6f22fbd30aec0de592870c715b77910294df69c9f50e154d011a280cd4b5d753',
    'lift/field_0003.kvaf': '0e29ee449241794944386b6aac8531558883d3dafe1c8eaa37700ecbf53db527',
    'lift/field_0004.kvaf': 'bb7143d20d4abb09e0e264d8d006dadf6c991d95f02e04593bdde342ab147e07',
    'losses/grad_check.csv': '860725f5521b2ef4a69d280cb561a08d6dbaceac36f8badaef72180b58d61f6d',
    'losses/losses.csv': '2fc200024e2a04cdf7ce20e0db5d3fe5e3e1a89190f78d773405c9d1f7976fa5',
    'route/routing_stats.csv': 'b2960d14a4f968fed9738920de1b3b22c4a0b43634242ab83ab069bd06635065',
    'schedule/cost_summary.csv': '1ef393688ff3c7e43fc66a559cb4a26f997be53156b183ea35074a22b7756e87',
    'schedule/execution.csv': '1eb505fa4f9a5e439a7a8c5cadf26d6a862ec6619cead0888ca55248468d538f',
    'target/trajectory.txt': 'd30406433c410420d7a5eb6d5673e7d96a363e0f5f652af88ca5ac0fd5f76012',
}

GOLDEN_OUT_OF_VIEW = {
    'lift/channel_stats.csv': '1cd851cf32cd6ca2ce442420e177c458c712df15e3b72f1610c18931667359a3',
    'lift/field_0001.kvaf': 'e439758d6150ced3879e8579ad56aac5e68e49d3a9d653402dba56bba49b36dc',
    'lift/field_0002.kvaf': '9d201b89806914e0b451e2c1d09e5f841aca4dd70721b65313e8c6a480267ee5',
    'lift/field_0003.kvaf': 'd90235f1fd9118fa0fc29fb4784747dfdf0b846306981257be726e32ef54eb20',
    'lift/field_0004.kvaf': '0feaa8b5da09f554a171325397465a7f7a3b2b21436ceaa5604777a24409bd3d',
    'losses/grad_check.csv': 'cfdd31c72c6c05bae5eea0061953e8b3db5157454ebca2c24c35152058c3f7c2',
    'losses/losses.csv': 'eff95662bc41aa2413020d355b39bbed0be650a03bed0813b51e65a7c2a98039',
    'route/routing_stats.csv': 'f438ea8072346ba4ff11d5094adaab0eadce0d6091ace45433492fd039ff8d29',
    'schedule/cost_summary.csv': '1ef393688ff3c7e43fc66a559cb4a26f997be53156b183ea35074a22b7756e87',
    'schedule/execution.csv': 'a52a97b3887735780cadc979083b89473379754aa90bbdc20111ff560a86e157',
    'target/trajectory.txt': '49660e618473b50372df327a056187cd4df0b11fadf65744434c6d5a18e9e1d3',
}


GOLDEN_W1 = {
    'eval/metrics.csv': '805235d780bd65e4c441e5aa7fd7331c3a3b6d87ea90bda52072d219c7f46957',
    'lift/channel_stats.csv': '2e24f109ef149cba0e71f25d0b35f214841e4912955921180b63e17e2861fe12',
    'lift/field_0001.kvaf': '1132b76bec8efa61bb3e0176b9860352317ef80f9c10967d75bfd92d91e6a066',
    'lift/field_0002.kvaf': '0871a688cf91c579c1ffe40397f52b6197dfc38e98c8631aa6dc190cd44be1bf',
    'lift/field_0003.kvaf': 'ad5928b364ef534877ddef4f312df16ad4ff83358c08a99aa34157ee897f8360',
    'lift/field_0004.kvaf': '99f301840d6875a0a1ad56c52d814ed656dfc0b63c230b253988e23d2f2310fc',
    'losses/grad_check.csv': 'edde0101d995db23d312af0a47e26aee36cb8fafd0fc7992db8e82813e610c86',
    'losses/losses.csv': '8325c841dffd51510db5e9935916748810e14dc8a6e42ebca59725959db32cbf',
    'pred/masks/frame_0001.pgm': '8fc2bedc8f34e5e51bafa99fe1358e2eb4bbbdd0c6f7f190255876c6cf2009e1',
    'pred/masks/frame_0002.pgm': '78e6e0992b25984433fb8944ded672595d5c5797f9359131e870a91ed54e09f9',
    'pred/masks/frame_0003.pgm': '204b46ee7e39a104dc0e0c76b1bb8fadcf35bfe16e6afbba12e5ad64bd66e1be',
    'pred/masks/frame_0004.pgm': '0c9a3f022570ef3dca5f3381cabf88bf4b40927032e9fcff8459ec1358fb70a7',
    'pred/trajectory.txt': 'b9e0c8a4f57a8fbdfb803e4bcdafc453b3d33be4d71a33b046f93a150e2e3852',
    'route/routing_stats.csv': '2acfa8f70321109e35b032b2e93b03113e265b28fd200ebdb828e0354f0fa050',
    'schedule/cost_summary.csv': '1bd1f109cf154396f625e69b901e59febf084a1fd34789274ff5d717f63efa83',
    'schedule/execution.csv': '8d238d11dcee4fc69a3caeaf636f392472bcbb8f0cafa462d82a15e38022b69a',
    'target/masks/frame_0001.pgm': '0114de5a8e4904d07724bd4bf0418c3d0c61199cd6219cf7765f98c2ad5c121c',
    'target/masks/frame_0002.pgm': '39156019fe72aea460aa270b6a49c7f54ecdfcb37603da96a701e9cedad3d340',
    'target/masks/frame_0003.pgm': '2ebda4953fef23d44166f2724e9bb94cb0a5d9dbf973e500a5b0ca7153132af1',
    'target/masks/frame_0004.pgm': 'b2e26f494ecfa8e780c31e7065a4d66a2e305665ae19ffa5ffa9dbb2d4f7b5d8',
    'target/trajectory.txt': 'b89b3b9ad67bc0365c170dd5e3170512cfba5dac022601d1e4f3eac5d4577909',
}

GOLDEN_PROGRESS = {
    'eval/metrics.csv': 'c058c5cad4ca42f22196efdce2305f92e298e2e34fad1e6bbc40265b0d445d6e',
    'lift/channel_stats.csv': '29a382b79ca4ef89d3d779be7aca8f276b47a456f57ba850696a51a6699035e8',
    'lift/field_0001.kvaf': '650c669ad79f14d33a6a8ac89797a8c2d884d5020d81910bafd66c51e8bc5e76',
    'lift/field_0002.kvaf': 'e066eff33cb49326bb79bf675bb2882d4bf956c321646ae500db53033d2705e6',
    'lift/field_0003.kvaf': 'cf3a77b4071ce5f521bb72a0ce36408177041eee0e9356e868f9f7c2e69b176f',
    'lift/field_0004.kvaf': 'b11f6c6e0632a46c5bfc10571ab812f982eb5b7c5dc7974046495ac50460836b',
    'losses/grad_check.csv': '7fb6ffc0f14d8074853b42d19778114d62438cc5ea2cd7a65cdfa024d3138c6a',
    'losses/losses.csv': '520eb396374e25aa51722806b4af064552a371ad031064ca8aa84a430cfedf9a',
    'pred/masks/frame_0001.pgm': 'df7aafd62b187392f839ce99a42c14890d230d42dd32af936726a651b7e62b2c',
    'pred/masks/frame_0002.pgm': '725552b881defb168e36a35947948786ac4c5bbfee34ebea298f94d117349e7f',
    'pred/masks/frame_0003.pgm': 'a5c1576d81675a1e4aca1ee659ebf5645515c87c1558434a061d1fbcc4010024',
    'pred/masks/frame_0004.pgm': '68a7ef1a680f2bf0c76b4ac71b96d653fddb16e762155e4dfdbd50f8af1e2b5c',
    'pred/trajectory.txt': 'ae8c932adcad3f7797ec53de21c48374829abaf2aa4a68067ce6f6f880ce95c3',
    'route/routing_stats.csv': 'ee118e68dff13c00dab718a43d9149f15fc62f022c4d2210b404e31d6641ef41',
    'schedule/cost_summary.csv': '633fc1dec6634c6fd96a593ed6ead0a27a8e91809c4c50469bb5ba5390bb3515',
    'schedule/execution.csv': 'b80e6e280960fb6131ad124d75eb221ead261834af842ca75cdac06bcc21fc85',
    'target/masks/frame_0001.pgm': 'c0d9ba588f67b4edfa919f198150463c0133fb03177660df2e414ebedbe9539a',
    'target/masks/frame_0002.pgm': 'f98d3697136a93d6f6729220bc82074781dbd4b369915354923463fe7f40e803',
    'target/masks/frame_0003.pgm': 'a2dfee32926008ec8bcb883d0d8dac41d1f1821349b82e22a34ec7a2b924fe79',
    'target/masks/frame_0004.pgm': 'ab5faeaaa4eea38cf34840f5c63ae8c2086cc3c7257c0541acb0b49d43d424aa',
    'target/trajectory.txt': 'b9912a04a0eef7e268d7b8d9a011b098bd1f2a1fc73452bcbd02f5694c113809',
}

GOLDEN_PROGRESS_DENSE = {
    'eval/metrics.csv': 'bebf3eff10d6e33951e340988ef091357f9c32ba0348a6d011961e81283dbc05',
    'lift/channel_stats.csv': '8ad659b86f67b832beb0ac99928aaea12999699c0dedd1a88ba397e0d21a6ff8',
    'lift/field_0001.kvaf': 'a7cf2b6e887318899f55d3219a6e08f9b97f55789fcdb493df9cc351e1b30b69',
    'lift/field_0002.kvaf': '797d55db4bb5b2f2be5072b4fed3b14d27a16ee9a9f80dd7f130413c6ff01d0b',
    'lift/field_0003.kvaf': 'f59bc3666d2a234d07b1730fb0b3ce05472751fc9b641f74d1d8009dd33bfcd9',
    'lift/field_0004.kvaf': '78d796cc1a37468d13651122a4c9bcffee3093785ed90333ad4e58f4bc4df42d',
    'losses/grad_check.csv': '1792e7d6d18ddc31f8ff09285892a0f26d1691598c5c07908eed22d034783ab1',
    'losses/losses.csv': '839e182c33467ae4d2f4cb2ebd2b651d1874aa5b0dfafd45e45575035426f684',
    'pred/masks/frame_0001.pgm': '676ba77623027865214a520f36d7657345b5261323e08fed3203ed94c99e36eb',
    'pred/masks/frame_0002.pgm': '1053d66eb02834472f17be445079ffec4bf15b9c3c44bc405dd7a92a8f0695a4',
    'pred/masks/frame_0003.pgm': '935abf6bdc0b10d66638af856b70f4a4df2419555832d8cc821f55f79ee59ccf',
    'pred/masks/frame_0004.pgm': 'f8ab71f5aa59e42fd27c9c6b3ce521574a797896484dc63458693f6995b66776',
    'pred/trajectory.txt': '1e64ccce03357df59b4bb068a01c84053414ff4da3a7f2432b3274872dfccc35',
    'route/routing_stats.csv': '1427a2728906877f39ccaad68fa7dba03fb9d5bb37946f8e2d3cad533427f9d0',
    'schedule/cost_summary.csv': 'b2ae68610b71bbd033f55fef4ef98fe6dd4df4b234bd5b05d451c9187aa7170a',
    'schedule/execution.csv': '5237c4c68613f8396e2b42b8eb4685e605a7713de4e862bce3f99e0e8f2711e4',
    'target/masks/frame_0001.pgm': '99a55e761065ad5e1843e11bd4a43dc9f28da0a082e9205dd30b540da1b31d42',
    'target/masks/frame_0002.pgm': '389ec2df088433aae12a6ae72138642229c1b7035b12be542a6f38fc2beffb50',
    'target/masks/frame_0003.pgm': '494f57f19b9f620e343751ae73281cbbbdf111b4f0e2766a4ca16741e76faf25',
    'target/masks/frame_0004.pgm': 'da64294a2a61370245f69e595b7402e13e21752fdc6ff425e7690f1bf76ed4f3',
    'target/trajectory.txt': '467aad62a9c94f8cabc889dbb3c9670eda073b67e052076291a29d41754ddc9f',
}


CONFIG_NAME = "config.json"
# synth_trajectory's seed for the trajectories run_flow writes through the
# library
LIBRARY_TRAJ_SEED = 5


def write_library_trajectory(path, resolution, frames, base):
    """A composite trajectory whose base sits at `base` (x, y, z in metres),
    written through the library's public functions as perfbench's
    `write_exit_inputs` does."""
    h, w = (int(n) for n in resolution.split("x"))
    state = dataclasses.replace(kinematics.DEFAULT_BASE_STATE,
                                p=np.array(base, dtype=float))
    traj = kinematics.synth_trajectory("composite", params={"base": state},
                                       T=frames, seed=LIBRARY_TRAJ_SEED)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    formats.write_trajectory(path, traj,
                             kinematics.default_camera(width=w, height=h),
                             seq_id="library")


def run_flow(root, resolution="64x64", frames=4, seed=3, config=None,
             base=None, commands=cli.WRITERS):
    """Run the CLI flow under `root` (target seed `seed`, prediction seed
    `seed + 1`, every command given `--config` holding the dict `config` when
    one is given), with the trajectory commands `commands`, each into a
    directory of its name; return {relative path: sha256 hex} of the
    artefacts.

    With `base`, the target trajectory is `write_library_trajectory`'s, and
    only the trajectory commands run, all with seed `seed`: no masks are
    drawn or evaluated."""
    root = str(root)
    common = ["--resolution", resolution]
    if config is not None:
        config_path = os.path.join(root, CONFIG_NAME)
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        common += ["--config", config_path]
    traj = os.path.join(root, "target", "trajectory.txt")
    if base is not None:
        write_library_trajectory(traj, resolution, frames, base)
    else:
        for s, out in ((seed, "target"), (seed + 1, "pred")):
            assert cli.main(["--seed", str(s), "--out", os.path.join(root, out),
                             *common, "synth", "--frames", str(frames)]) == 0
    for cmd in commands:
        assert cli.main(["--seed", str(seed), "--out", os.path.join(root, cmd),
                         *common, cmd, "--traj", traj]) == 0
    if base is None:
        assert cli.main(["--out", os.path.join(root, "eval"), "eval",
                         "--pred", os.path.join(root, "pred", "masks"),
                         "--target", os.path.join(root, "target", "masks")]) == 0
    digests = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if dirpath == root and name == CONFIG_NAME:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    f.read()).hexdigest()
    return digests


# (recorded digests, run_flow arguments) per case
CASES = ((GOLDEN, {}),
         (GOLDEN_128, {"resolution": "128x128", "frames": 3, "seed": 7}),
         (GOLDEN_STRIDE8, {"seed": 11, "config": {"stride": 8}}),
         (GOLDEN_TOKEN33, {"seed": 13, "config": {"token_dim": 33}}),
         (GOLDEN_32X48_T1, {"resolution": "32x48", "frames": 1, "seed": 15}),
         (GOLDEN_40X56_STRIDE2, {"resolution": "40x56", "frames": 3, "seed": 17,
                                 "config": {"stride": 2}}),
         (GOLDEN_BUDGET, {"frames": 10, "seed": 19,
                          "config": {"rho_full": 0.02, "rho_light": 0.05}}),
         (GOLDEN_NEAR_BASE, {"seed": 1, "base": (0.0, 0.0, 0.006)}),
         (GOLDEN_OUT_OF_VIEW, {"seed": 1, "base": (1.0, 0.0, 0.006)}),
         (GOLDEN_W1, {"resolution": "128x16", "seed": 21,
                      "config": {"stride": 16}}),
         (GOLDEN_PROGRESS, {"seed": 23, "config": {"progress": 0.575}}),
         (GOLDEN_PROGRESS_DENSE, {"seed": 25, "config": {"progress": 0.2}}))


CASE_IDS = ("default", "128", "stride8", "token33", "32x48_t1",
            "40x56_stride2", "budget", "near_base", "out_of_view", "w1",
            "progress", "progress_dense")


def check_case(root, golden, kwargs):
    digests = run_flow(root, **kwargs)
    assert sorted(digests) == sorted(golden)
    for name in sorted(golden):
        assert digests[name] == golden[name], name


def test_artefacts_match_recorded_digests(tmp_path):
    check_case(tmp_path, *CASES[0])


def test_artefacts_match_recorded_digests_128(tmp_path):
    check_case(tmp_path, *CASES[1])


def test_artefacts_match_recorded_digests_stride8(tmp_path):
    check_case(tmp_path, *CASES[2])


def test_artefacts_match_recorded_digests_token33(tmp_path):
    check_case(tmp_path, *CASES[3])


def test_artefacts_match_recorded_digests_32x48_t1(tmp_path):
    check_case(tmp_path, *CASES[4])


def test_artefacts_match_recorded_digests_40x56_stride2(tmp_path):
    check_case(tmp_path, *CASES[5])


def test_artefacts_match_recorded_digests_budget(tmp_path):
    check_case(tmp_path, *CASES[6])


@pytest.mark.parametrize("golden,kwargs", CASES, ids=CASE_IDS)
def test_run_writes_the_four_commands_artefacts(tmp_path, golden, kwargs):
    # each writer's files, moved into run's one directory
    as_run = {}
    for name, digest in golden.items():
        command, file = name.split("/", 1)
        as_run["run/" + file if command in cli.WRITERS else name] = digest
    check_case(tmp_path, as_run, {**kwargs, "commands": ("run",)})


def test_artefacts_match_recorded_digests_w1(tmp_path):
    check_case(tmp_path, *CASES[9])


def test_artefacts_match_recorded_digests_progress(tmp_path):
    check_case(tmp_path, *CASES[10])


def test_artefacts_match_recorded_digests_progress_dense(tmp_path):
    check_case(tmp_path, *CASES[11])


def _execution(root):
    with open(os.path.join(root, "schedule", "execution.csv"),
              encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _semantics(root, t):
    """Frame t's summed semantic planes, as written to its KVAF file."""
    field = formats.read_field(os.path.join(root, "lift",
                                            f"field_{t:04d}.kvaf"))
    return field.channels[..., :3].sum(axis=2)


def test_artefacts_match_recorded_digests_near_base(tmp_path):
    check_case(tmp_path, *CASES[7])
    # the branches the case is there for
    assert (_semantics(tmp_path, 1) == 1).all()
    frame2 = _execution(tmp_path)[1]
    assert float(frame2["mean_significance"]) >= sched.TAU_H
    assert frame2["refresh"] == "1"


def test_artefacts_match_recorded_digests_out_of_view(tmp_path):
    check_case(tmp_path, *CASES[8])
    assert not any(_semantics(tmp_path, t).any() for t in range(1, 5))
    rows = _execution(tmp_path)
    assert [r["forced"] for r in rows] == ["1", "0", "1", "0"]
    assert all(r["mean_significance"] == "0.5" for r in rows)


if __name__ == "__main__":
    import tempfile

    for _, kwargs in CASES:
        print(kwargs or "default case")
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in sorted(run_flow(tmp, **kwargs).items()):
                print(f"    {name!r}: {digest!r},")

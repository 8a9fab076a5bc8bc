#!/usr/bin/env python3
"""Tests of the benchmark's answer checks: python3 perfbench/test_check.py

They need no build: they check the pinned references against each other
and show that a corrupted reference makes a correct replay fail.
"""
import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402


class AnswerCheckTest(unittest.TestCase):
    def setUp(self):
        self.ref = check.load_reference()

    def replays(self, workload):
        return self.ref["digests"][workload]["replays"]

    def test_every_workload_is_pinned(self):
        for workload in ("ooc-pcm", "ckpt-nand", "lobpcg-ufs"):
            trace = self.ref["digests"][workload]["trace"]
            self.assertEqual(check.check_trace(self.ref, workload, trace), [])
            self.assertGreaterEqual(len(self.replays(workload)), 3)

    def test_pinned_ooc_pcm_digests_equal_bench_headline(self):
        for config, digest in self.replays("ooc-pcm").items():
            self.assertEqual(check.check_replay(self.ref, "ooc-pcm", config, digest), [],
                             config)

    def test_corrupted_reference_digest_is_caught(self):
        observed = copy.deepcopy(self.replays("ckpt-nand")["CNL-EXT3/MLC"])
        corrupt = copy.deepcopy(self.ref)
        corrupt["digests"]["ckpt-nand"]["replays"]["CNL-EXT3/MLC"]["makespan_ps"] += 1
        problems = check.check_replay(corrupt, "ckpt-nand", "CNL-EXT3/MLC", observed)
        self.assertEqual(len(problems), 1)
        self.assertIn("makespan_ps", problems[0])

    def test_corrupted_pal_fraction_is_caught(self):
        observed = copy.deepcopy(self.replays("lobpcg-ufs")["CNL-UFS/PCM"])
        corrupt = copy.deepcopy(self.ref)
        pal = corrupt["digests"]["lobpcg-ufs"]["replays"]["CNL-UFS/PCM"]["pal_fraction"]
        pal[3] = pal[3] * (1 + 1e-15) if pal[3] else 1e-300
        self.assertNotEqual(check.check_replay(corrupt, "lobpcg-ufs", "CNL-UFS/PCM", observed),
                            [])

    def test_corrupted_trace_digest_is_caught(self):
        observed = copy.deepcopy(self.ref["digests"]["lobpcg-ufs"]["trace"])
        corrupt = copy.deepcopy(self.ref)
        corrupt["digests"]["lobpcg-ufs"]["trace"]["lambda0"] += 1e-12
        self.assertNotEqual(check.check_trace(corrupt, "lobpcg-ufs", observed), [])

    def test_corrupted_bench_headline_is_caught(self):
        observed = copy.deepcopy(self.replays("ooc-pcm")["CNL-EXT4/PCM"])
        corrupt = copy.deepcopy(self.ref)
        corrupt["headline"]["CNL-EXT4/PCM"]["achieved_mbps"] += 1e-9
        problems = check.check_replay(corrupt, "ooc-pcm", "CNL-EXT4/PCM", observed)
        self.assertEqual(len(problems), 1)
        self.assertIn("BENCH_headline.json", problems[0])

    def test_unpinned_config_is_a_failure(self):
        digest = self.replays("ooc-pcm")["CNL-UFS/PCM"]
        self.assertNotEqual(check.check_replay(self.ref, "ooc-pcm", "CNL-XFS/PCM", digest), [])


if __name__ == "__main__":
    unittest.main()

"""Fig. 12: SSD power/bandwidth under fio workloads."""

from driver import bench_test

test_bench_fig12 = bench_test("fig12")

package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, ScalabilityExperiments => S}

/** Fig 10 (Section IV-D): parallelization scalability. Paper shape: near
  * linear speed-up in T and memory linear in T. T maps to the tasks per
  * mode update (row blocks per mode) on the local[16] session (DESIGN.md §2).
  */
class Fig10ThreadScalingBench extends SparkSpec {

  test("Fig 10: speed-up grows with partitions; memory model is linear in T") {
    val report = S.fig10Threads(spark)
    Harness.emit(report.markdown)
    val rows = report.rows
    assert(rows.head.speedup == 1.0)
    // more workers must help substantially by T=16 (JVM+Spark overheads keep
    // it below the paper's near-perfect line; shape is what we check)
    assert(rows.last.speedup > 2.0, s"T=16 speed-up ${rows.last}")
    // monotone non-degrading overall trend: best speed-up at max T
    assert(rows.map(_.speedup).max == rows.last.speedup || rows.last.speedup > 3.0)
    // memory model strictly linear in T (2% slack)
    assert(math.abs(rows.last.kib / rows.head.kib - 16.0) < 0.32)
  }
}

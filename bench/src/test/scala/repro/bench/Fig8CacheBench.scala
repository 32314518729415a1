package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, ScalabilityExperiments => S}

/** Fig 8 (Section IV-C): P-Tucker vs P-Tucker-Cache. Paper shape: the cache
  * trades a `|Ω|·J^N` table (29.5x more memory at N=10) for up to 1.7x
  * faster iterations at high order.
  */
class Fig8CacheBench extends SparkSpec {

  test("Fig 8: cache variant uses orders more intermediate memory; gap grows with order") {
    val report = S.fig8Cache(spark)
    Harness.emit(report.markdown)
    report.rows.foreach { r =>
      assert(r.cacheKiB > 10.0 * r.defaultKiB,
        s"cache table should dwarf the O(T·J²) data at N=${r.order}: ${r.defaultKiB} vs ${r.cacheKiB} KiB")
    }
    // memory ratio grows with order (J^N vs J²)
    val ratios = report.rows.map(r => r.cacheKiB / r.defaultKiB)
    assert(ratios.last > ratios.head, s"memory gap should widen with order: $ratios")
  }
}

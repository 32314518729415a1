package repro.bench

import repro.SparkSpec
import repro.exp.{DiscoveryExperiments => D, Harness, Method, RealWorldExperiments => R, ScalabilityExperiments => S}

/** Table I (Section I): the scalability matrix, measured rather than
  * asserted. Paper: P-Tucker checks all four boxes; wOPT only accuracy;
  * CSF scale+speed; S-HOT scale+speed+memory.
  */
class Table1ScalabilityMatrixBench extends SparkSpec {

  test("Table I: measured matrix matches the paper's check-mark pattern") {
    val report = R.table1Matrix(spark)
    Harness.emit(report.markdown)
    val byMethod = report.rows.map(r => r.method -> r).toMap
    val pt = byMethod(Method.PTuckerDefault)
    assert(pt.scale && pt.speed && pt.memory && pt.accuracy)
    assert(byMethod(Method.Wopt).accuracy, "wOPT is the accuracy-focused method")
    assert(!byMethod(Method.Wopt).scale, "wOPT cannot scale (dense O(I^N))")
    assert(byMethod(Method.SHot).memory)
    assert(!byMethod(Method.SHot).accuracy, "zero-filled methods are inaccurate on sparse data")
    assert(!byMethod(Method.Csf).accuracy)
  }
}

/** Table III (Section III-E2): empirical check of the complexity model. */
class Table3ComplexityBench extends SparkSpec {

  test("Table III: measured time ratios track the O(NIJ^3 + N^2|Ω|J^N) model") {
    val report = S.table3Complexity(spark)
    Harness.emit(report.markdown)
    val byLabel = report.rows.map(r => r.label -> r).toMap
    def ratio(label: String) = byLabel(label).measured
    // doubling |Ω| roughly doubles the work (within Spark overhead slack)
    assert(ratio("|Ω| x2") > 1.3, s"|Ω| x2: ${byLabel("|Ω| x2")}")
    // J 6→12 is the dominant J^N blow-up: must be clearly superlinear
    assert(ratio("J 6→12") > 3.0, s"J: ${byLabel("J 6→12")}")
    // I x4 leaves the |Ω|J^N term untouched: must NOT scale like I
    assert(ratio("I x4") < 3.0, s"I: ${byLabel("I x4")}")
    // N 3→4 multiplies the per-entry core work by ~J·(N growth)
    assert(ratio("N 3→4") > 2.0, s"N: ${byLabel("N 3→4")}")
  }
}

/** Table IV (Section IV-A1): dataset summary for the substitutes. */
class Table4DatasetsBench extends SparkSpec {

  test("Table IV: substitute datasets have the documented shapes") {
    val report = R.table4(spark)
    Harness.emit(report.markdown)
    val byName = report.rows.map(r => r.dataset.name -> r.dataset.tensor).toMap
    assert(byName("Yahoo-music*").order == 4)
    assert(byName("MovieLens*").order == 4)
    assert(byName("Video (Wave)*").dims.toSeq == Seq(112, 160, 3, 32), "video keeps the paper's dims")
    assert(byName("Image (Lena)*").dims.toSeq == Seq(256, 256, 3), "image keeps the paper's dims")
    report.rows.foreach(r => assert(r.nnz > 1000, s"${r.dataset.name} too small"))
  }
}

/** Tables V & VI (Section V): discoveries on the planted MovieLens-like
  * tensor — one shared factorization, checked against the planted structure.
  */
class Table5And6DiscoveryBench extends SparkSpec {

  private lazy val model = D.fitModel(spark)

  test("Table V: K-means concepts recover planted genres") {
    val (report, purity) = D.table5Concepts(model)
    Harness.emit(report.markdown)
    assert(purity > 0.5, s"genre purity $purity")
    assert(report.rows.nonEmpty && report.rows.head.concept.purity > 0.5,
      s"largest concept should be genre-dominated: ${report.rows.headOption}")
  }

  test("Table VI: top core cells align with planted genre-hour relations") {
    val (report, aligned) = D.table6Relations(model)
    Harness.emit(report.markdown)
    assert(report.rows.size == 3)
    assert(aligned >= 1, s"at least one top relation should match planted hours; got $aligned")
  }
}

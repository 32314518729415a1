package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, TensorGen}

/** Cross-checks the trained model's Eq.-(6) reconstruction error against an
  * independent DuckDB SQL formulation: the prediction of Eq. (5) is a join
  * of (entries ⋈ core ⋈ factor tables) with a SUM of products, so a wrong δ,
  * a transposed factor, or a broken kernel shows up as a row mismatch here —
  * not just "it converged".
  */
class PTuckerOracleSpec extends SparkSpec {

  private def longFactor(name: String, m: repro.linalg.DenseMatrix) = {
    val rows = for (i <- 0 until m.rows; j <- 0 until m.cols)
      yield Row(i, j, m(i, j))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows),
      StructType(Seq(StructField("i", IntegerType), StructField("j", IntegerType),
        StructField("v", DoubleType))))
  }

  private def longCore(core: repro.tensor.CoreTensor) = {
    val rows = core.entries.toIndexedSeq.map(e => Row(e.idx(0), e.idx(1), e.idx(2), e.value))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows),
      StructType(Seq(StructField("j0", IntegerType), StructField("j1", IntegerType),
        StructField("j2", IntegerType), StructField("v", DoubleType))))
  }

  test("model reconstruction error equals the DuckDB SQL oracle") {
    val t = TensorGen.lowRank(spark, dims = Array(6, 5, 4), ranks = Array(2, 2, 2),
      nnz = 150, noiseSd = 0.05, seed = 4)
    val model = PTucker.fit(spark, t, PTuckerConfig(
      ranks = Array(2, 2, 2), maxIters = 4, partitions = 2, orthogonalize = false))

    val errSpark = model.reconstructionError(spark, t, partitions = 2)
    val sparkDf = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(errSpark))),
      StructType(Seq(StructField("err", DoubleType))))

    val sql =
      """
        |SELECT SQRT(SUM((x - pred) * (x - pred))) AS err FROM (
        |  SELECT ANY_VALUE(CAST(t.value AS DOUBLE)) AS x,
        |         SUM(CAST(g.v AS DOUBLE) * CAST(f0.v AS DOUBLE)
        |             * CAST(f1.v AS DOUBLE) * CAST(f2.v AS DOUBLE)) AS pred
        |  FROM t
        |  CROSS JOIN g
        |  JOIN f0 ON f0.i = t.i0 AND f0.j = g.j0
        |  JOIN f1 ON f1.i = t.i1 AND f1.j = g.j1
        |  JOIN f2 ON f2.i = t.i2 AND f2.j = g.j2
        |  GROUP BY t.i0, t.i1, t.i2
        |)
        |""".stripMargin

    Oracle.assertEquivalent(sparkDf, sql,
      "t" -> t.df,
      "g" -> longCore(model.core),
      "f0" -> longFactor("f0", model.factors(0)),
      "f1" -> longFactor("f1", model.factors(1)),
      "f2" -> longFactor("f2", model.factors(2)))
  }

  test("per-row normal-equation vector c matches the DuckDB SQL oracle") {
    // c_{i_0,j} = Σ_{α ∈ Ω^(0)_{i_0}} x_α δ_α(j) — assembled in SQL from the
    // same long tables, compared against the kernel's aggregation.
    val t = TensorGen.lowRank(spark, dims = Array(5, 4, 3), ranks = Array(2, 2, 2),
      nnz = 80, noiseSd = 0.0, seed = 8)
    val factors = Array.tabulate(3)(n => repro.linalg.DenseMatrix.rand(t.dims(n), 2, 50 + n))
    val core = repro.tensor.CoreTensor.rand(Array(2, 2, 2), 60)
    val fd = TuckerKernels.factorData(factors)
    val tree = CoreTree(core)
    val scratch = tree.scratch()

    // Spark/kernel side: c per (i0, j)
    val cRows = t.collectEntries()
      .flatMap { case (idx, x) =>
        val d = PTucker.computeDelta(idx, 0, 2, fd, tree, scratch)
        d.indices.map(j => ((idx(0), j), x * d(j)))
      }
      .groupBy(_._1).map { case ((i0, j), vs) => Row(i0, j, vs.map(_._2).sum) }.toSeq
    val sparkDf = spark.createDataFrame(
      spark.sparkContext.parallelize(cRows),
      StructType(Seq(StructField("i0", IntegerType), StructField("j", IntegerType),
        StructField("c", DoubleType))))

    // DuckDB side: delta as a join (sum over core cells with j0 = j), then c.
    val sql =
      """
        |SELECT i0, j, SUM(x * delta) AS c FROM (
        |  SELECT t.i0 AS i0, g.j0 AS j, ANY_VALUE(CAST(t.value AS DOUBLE)) AS x,
        |         SUM(CAST(g.v AS DOUBLE) * CAST(f1.v AS DOUBLE) * CAST(f2.v AS DOUBLE)) AS delta
        |  FROM t
        |  CROSS JOIN g
        |  JOIN f1 ON f1.i = t.i1 AND f1.j = g.j1
        |  JOIN f2 ON f2.i = t.i2 AND f2.j = g.j2
        |  GROUP BY t.i0, t.i1, t.i2, g.j0
        |)
        |GROUP BY i0, j
        |""".stripMargin

    Oracle.assertEquivalent(sparkDf, sql,
      "t" -> t.df,
      "g" -> longCore(core),
      "f1" -> longFactor("f1", factors(1)),
      "f2" -> longFactor("f2", factors(2)))
  }
}

package repro.exp

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.tensor.{MemoryGuard, SparseTensor}

/** Figure-7 (real-world speed), Figure-11 (real-world accuracy), Table-IV
  * (dataset summary) and Table-I (scalability matrix) experiments, on the
  * real-world dataset substitutes of DESIGN.md §5.
  */
object RealWorldExperiments {

  final case class Dataset(name: String, tensor: SparseTensor, ranks: Array[Int],
                           paperDims: String, paperNnz: String, paperRank: Int)

  /** The four real-world substitutes at container scale. Ranks are capped by
    * 4-order cost (`J^N` core cells per entry per mode); the paper used
    * J=10 on two of them — recorded in Table IV output for the diff.
    */
  def datasets(spark: SparkSession): Seq[Dataset] = Seq(
    Dataset("Yahoo-music*", TensorGen.yahooLike(spark, nnz = 50000),
      Array(4, 4, 4, 4), "(1M, 625K, 133, 24)", "252M", 10),
    Dataset("MovieLens*", TensorGen.movieLensLike(spark, nnz = 50000),
      Array(4, 4, 4, 4), "(138K, 27K, 21, 24)", "20M", 10),
    Dataset("Video (Wave)*", TensorGen.videoLike(spark, nnz = 20000),
      Array(3, 3, 3, 3), "(112, 160, 3, 32)", "160K", 3),
    Dataset("Image (Lena)*", TensorGen.imageLike(spark, nnz = 20000),
      Array(3, 3, 3), "(256, 256, 3)", "20K", 3),
  )

  /** Table IV row: a substitute dataset and its observed-entry count. */
  final case class DatasetRow(dataset: Dataset, nnz: Long)

  /** Table IV: summary of the tensors actually used (substitutes). */
  def table4(spark: SparkSession): Report[DatasetRow] =
    Report("Table IV — datasets (ours* vs paper originals)",
      Seq("Name", "Order", "Dims", "|Ω|", "Rank", "Paper dims", "Paper |Ω|", "Paper rank"),
      datasets(spark).map(d => DatasetRow(d, d.tensor.nnz))) { case DatasetRow(d, nnz) =>
      Seq(d.name, d.tensor.order.toString, d.tensor.dims.mkString("(", ", ", ")"),
        nnz.toString, d.ranks.max.toString, d.paperDims, d.paperNnz, d.paperRank.toString)
    }

  private val RealWorldMethods = Seq(Method.PTuckerDefault, Method.PTuckerApprox,
    Method.SHot, Method.Csf, Method.Wopt)

  /** Fig 7: average time per iteration on the real-world substitutes. */
  def fig7Speed(spark: SparkSession, iters: Int = 3): Report[TimeRow] =
    TimeRow.report(
      "Fig 7 — time/iter on real-world substitutes (paper: P-Tucker 1.7-275x faster; wOPT O.O.M. on Yahoo+MovieLens)",
      "Dataset", RealWorldMethods,
      MemoryGuard.withBudget(ScalabilityExperiments.BenchBudgetDoubles) {
        datasets(spark).map(d => TimeRow.measure(spark, d.name, d.tensor, RealWorldMethods, d.ranks, iters))
      })

  /** Fig 11 row: train reconstruction error and test RMSE, `None` on O.O.M. */
  final case class AccuracyRow(dataset: String, method: Method,
                               reconError: Option[Double], testRmse: Option[Double])

  /** Fig 11: reconstruction error (train) and test RMSE (90/10 split). */
  def fig11Accuracy(spark: SparkSession, iters: Int = 8): Report[AccuracyRow] = {
    val rows = MemoryGuard.withBudget(ScalabilityExperiments.BenchBudgetDoubles) {
      datasets(spark).flatMap { d =>
        val (train, test) = d.tensor.split(0.9)
        train.persisted(); test.persisted()
        val rows = RealWorldMethods.map { m =>
          // first-order wOPT needs more sweeps than ALS to converge; this is
          // an accuracy figure, so give it its fair iteration budget
          val it = if (m == Method.Wopt) 30 else iters
          val model = Harness.run(spark, m, train, d.ranks, it).model
          AccuracyRow(d.name, m, model.map(_.reconstructionError(spark, train)),
            model.map(_.testRmse(spark, test)))
        }
        train.unpersist(); test.unpersist()
        rows
      }
    }
    Report("Fig 11 — accuracy (paper: P-Tucker 1.4-4.8x less recon error, 1.4-4.3x less test RMSE)",
      Seq("Dataset", "Method", "Recon error", "Test RMSE"), rows) { r =>
      Seq(r.dataset, r.method.name, Report.orOom(r.reconError)(v => f"$v%.3f"),
        Report.orOom(r.testRmse)(v => f"$v%.4f"))
    }
  }

  /** Table I row: which of the paper's four properties a method shows. */
  final case class MatrixRow(method: Method, scale: Boolean, speed: Boolean,
                             memory: Boolean, accuracy: Boolean)

  /** Table I: the scalability matrix, derived from measurements instead of
    * asserted — scale (finishes the large sparse config without O.O.M.),
    * speed (within 3x of the fastest that ran), memory (intermediate-data
    * model independent of I and |Ω|), accuracy (held-out RMSE beats the
    * zero-predictor by >30% on a noisy planted tensor).
    */
  def table1Matrix(spark: SparkSession): Report[MatrixRow] = {
    val methods = Seq(Method.Wopt, Method.Csf, Method.SHot, Method.PTuckerDefault)
    val rows = MemoryGuard.withBudget(ScalabilityExperiments.BenchBudgetDoubles) {
      // scale + speed probe: sparse but large-dimensioned tensor
      val big = TensorGen.uniform(spark, Array.fill(3)(10000), 50000, seed = 1).persisted()
      val speedRuns = methods.map(m => m -> Harness.run(spark, m, big, Array.fill(3)(4), 2)).toMap
      big.unpersist()
      val best = speedRuns.values.flatMap(_.msPerIter).min

      // accuracy probe: planted low-rank with held-out entries
      val planted = TensorGen.lowRank(spark, Array(40, 40, 40), Array(3, 3, 3),
        nnz = 8000, noiseSd = 0.02, seed = 2, scaleTo = Some(1.0)).persisted()
      val (train, test) = planted.split(0.9)
      val zeroRmse = math.sqrt(
        test.collectEntries().map { case (_, v) => v * v }.sum / test.nnz)
      val accRuns = methods.map { m =>
        m -> Harness.run(spark, m, train, Array.fill(3)(3), 10).model
          .map(_.testRmse(spark, test))
      }.toMap
      planted.unpersist()

      // memory: from the Table-III intermediate-data models (checked in
      // PTuckerRuleSpec/complexity tests): ✓ iff independent of I and |Ω|.
      val memOk = Map[Method, Boolean](Method.Wopt -> false, Method.Csf -> false,
        Method.SHot -> true, Method.PTuckerDefault -> true)

      methods.map { m =>
        MatrixRow(m, scale = !speedRuns(m).oom, speed = speedRuns(m).msPerIter.exists(_ <= 3.0 * best),
          memory = memOk(m), accuracy = accRuns(m).exists(_ < 0.7 * zeroRmse))
      }
    }
    def mark(b: Boolean) = if (b) "yes" else "-"
    Report("Table I — scalability matrix (measured; paper: P-Tucker all four, wOPT accuracy only)",
      Seq("Method", "Scale", "Speed", "Memory", "Accuracy"), rows) { r =>
      r.method.name +: Seq(r.scale, r.speed, r.memory, r.accuracy).map(mark)
    }
  }
}

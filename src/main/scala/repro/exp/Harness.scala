package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.{SHotScan, TuckerCsf, TuckerWopt}
import repro.core.{PTucker, PTuckerConfig, PTuckerVariant, TuckerModel}
import repro.tensor.{SimulatedOom, SparseTensor}

/** The methods compared in Section IV, dispatchable by name. */
sealed abstract class Method(val name: String)
object Method {
  case object PTuckerDefault extends Method("P-Tucker")
  case object PTuckerCache   extends Method("P-Tucker-Cache")
  case object PTuckerApprox  extends Method("P-Tucker-Approx")
  case object SHot           extends Method("S-HOT_scan")
  case object Csf            extends Method("Tucker-CSF")
  case object Wopt           extends Method("Tucker-wOPT")

  val competitors: Seq[Method] = Seq(PTuckerDefault, SHot, Csf, Wopt)
  val all: Seq[Method] = Seq(PTuckerDefault, PTuckerCache, PTuckerApprox, SHot, Csf, Wopt)
}

/** One benchmark measurement: either a fitted model with timing, or the
  * O.O.M. marker the paper uses for methods whose dense allocations exceed
  * the (scaled) memory budget.
  */
final case class RunResult(method: Method, model: Option[TuckerModel], oom: Boolean) {
  def msPerIter: Option[Double] = model.map(_.avgMillisPerIter)
}

/** One paper table or figure: its title, column headers and typed rows.
  * `cells` is the only place a row becomes text; benches assert on `rows`.
  */
final case class Report[R](title: String, headers: Seq[String], rows: Seq[R])(cells: R => Seq[String]) {
  def markdown: String = Harness.table(title, headers, rows.map(cells))
}

/** The cell formats shared by every report. */
object Report {
  /** Time per iteration; `None` is the paper's O.O.M. */
  def ms(t: Option[Double]): String = orOom(t)(v => f"$v%.0f ms")
  def ratio(x: Double): String = f"$x%.2fx"
  def kib(x: Double, decimals: Int): String = s"%.${decimals}f KiB".format(x)
  def orOom(v: Option[Double])(format: Double => String): String = v.fold("O.O.M.")(format)
}

/** One row of a time-per-iteration table: each method's mean ms/iter,
  * `None` where it hit O.O.M.
  */
final case class TimeRow(label: String, ms: Map[Method, Option[Double]])

object TimeRow {
  /** Runs every method on `t`, persisted for the duration of the row. */
  def measure(spark: SparkSession, label: String, t: SparseTensor, methods: Seq[Method],
              ranks: Array[Int], iters: Int): TimeRow = {
    t.persisted()
    try TimeRow(label, methods.map(m => m -> Harness.run(spark, m, t, ranks, iters).msPerIter).toMap)
    finally t.unpersist()
  }

  def report(title: String, first: String, methods: Seq[Method], rows: Seq[TimeRow]): Report[TimeRow] =
    Report(title, first +: methods.map(_.name), rows)(r => r.label +: methods.map(m => Report.ms(r.ms(m))))
}

/** Shared experiment machinery: run-one-method dispatch and markdown table
  * rendering (bench suites and [[Main]] print these tables; EXPERIMENTS.md
  * records them next to the paper's numbers).
  */
object Harness {

  def run(spark: SparkSession, method: Method, t: SparseTensor, ranks: Array[Int],
          iters: Int, partitions: Int = 0, seed: Long = 17): RunResult = {
    def cfg(v: PTuckerVariant) = PTuckerConfig(ranks = ranks, maxIters = iters,
      tol = 0.0, variant = v, partitions = partitions, orthogonalize = false, seed = seed)
    try {
      val model = method match {
        case Method.PTuckerDefault => PTucker.fit(spark, t, cfg(PTuckerVariant.Default))
        case Method.PTuckerCache   => PTucker.fit(spark, t, cfg(PTuckerVariant.Cache))
        case Method.PTuckerApprox  => PTucker.fit(spark, t, cfg(PTuckerVariant.Approx))
        case Method.SHot           => SHotScan.fit(spark, t, ranks, iters, partitions, seed)
        case Method.Csf            => TuckerCsf.fit(spark, t, ranks, iters, partitions, seed)
        case Method.Wopt           => TuckerWopt.fit(spark, t, ranks, iters, seed)
      }
      RunResult(method, Some(model), oom = false)
    } catch {
      case _: SimulatedOom => RunResult(method, None, oom = true)
    }
  }

  /** Renders a GitHub-markdown table. */
  def table(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append(headers.mkString("| ", " | ", " |")).append('\n')
    sb.append(headers.map(_ => "---").mkString("| ", " | ", " |")).append('\n')
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |")).append('\n'))
    sb.toString
  }

  /** Prints to stdout (captured by `tee` into bench_output.txt). */
  def emit(s: String): Unit = { println(s); Console.out.flush() }
}

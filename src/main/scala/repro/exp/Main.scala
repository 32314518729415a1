package repro.exp

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.exp.{DiscoveryExperiments => D, RealWorldExperiments => R, ScalabilityExperiments => S}

/** Runs one reproduced table or figure and prints its markdown, the same
  * reports the bench suites assert on:
  *
  *   sbt "runMain repro.exp.Main fig6"
  *   spark-submit --class repro.exp.Main repro.jar table5
  */
object Main {

  /** Experiment name → its reports, printed in order as each finishes. */
  val experiments: ListMap[String, Seq[SparkSession => Report[_]]] = ListMap(
    "table1" -> Seq(R.table1Matrix),
    "table3" -> Seq(S.table3Complexity),
    "table4" -> Seq(R.table4),
    "table5" -> Seq(spark => D.table5Concepts(D.fitModel(spark))._1),
    "table6" -> Seq(spark => D.table6Relations(D.fitModel(spark))._1),
    "fig6" -> Seq(S.fig6Order, S.fig6Dim, S.fig6Nnz, S.fig6Rank),
    "fig7" -> Seq(R.fig7Speed(_)),
    "fig8" -> Seq(S.fig8Cache),
    "fig9" -> Seq(S.fig9Approx(_)),
    "fig10" -> Seq(S.fig10Threads),
    "fig11" -> Seq(R.fig11Accuracy(_)),
  )

  def usage: String = s"usage: repro.exp.Main <${experiments.keys.mkString("|")}>"

  def main(args: Array[String]): Unit = {
    val reports = args match {
      case Array(name) if experiments.contains(name) => experiments(name)
      case _ => throw new IllegalArgumentException(usage)
    }
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(args(0))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try reports.foreach(report => Harness.emit(report(spark).markdown))
    finally spark.stop()
  }
}

package repro.exp

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.core.{PTucker, PTuckerConfig, TuckerModel}
import repro.discovery.{Concept, ConceptDiscovery, Relation, RelationDiscovery}

/** Section-V experiments: Table V (concept discovery) and Table VI
  * (relation discovery) on the MovieLens-like tensor with *planted* genre /
  * hour / year structure, so alignment is measured, not narrated.
  */
object DiscoveryExperiments {

  val Users = 600
  val Movies = 150
  val Years = 21
  val Hours = 24

  /** One factorization shared by both tables (paper: J=8 on MovieLens;
    * movie mode gets J=8 here, other modes are smaller to bound `|G|`).
    */
  def fitModel(spark: SparkSession): TuckerModel = {
    val t = TensorGen.movieLensLike(spark, users = Users, movies = Movies,
      years = Years, hours = Hours, nnz = 40000, noiseSd = 0.02, seed = 42).persisted()
    val model = PTucker.fit(spark, t, PTuckerConfig(
      ranks = Array(6, 8, 4, 4), lambda = 0.01, maxIters = 8, tol = 1e-6))
    t.unpersist()
    model
  }

  private def genreName(g: Int) = TensorGen.Genres(g)

  /** Table V row: the `rank`-th largest K-means cluster of movies. */
  final case class ConceptRow(rank: Int, concept: Concept)

  /** Table V: K-means clusters over the movie-mode factor rows, with the
    * planted genre as ground truth. Returns (report, overall purity).
    */
  def table5Concepts(model: TuckerModel, k: Int = 12): (Report[ConceptRow], Double) = {
    val labels = Array.tabulate(Movies)(m => TensorGen.movieGenre(m, Movies))
    val movieFactor = model.factors(1)
    val purity = ConceptDiscovery.overallPurity(movieFactor, k, labels)
    val concepts = ConceptDiscovery.concepts(movieFactor, k, labels, samplesPerCluster = 3)
    val rows = concepts.take(6).zipWithIndex.map { case (c, i) => ConceptRow(i + 1, c) }
    val report = Report(f"Table V — movie concepts (overall purity $purity%.2f; paper found Thriller/Comedy/Drama)",
      Seq("Concept", "Size", "Purity", "Sample movies"), rows) { case ConceptRow(i, c) =>
      Seq(s"C$i: ${genreName(c.dominantLabel)}", c.size.toString,
        f"${c.purity}%.2f", c.sampleIndices.map(m => s"movie#$m").mkString(", "))
    }
    (report, purity)
  }

  /** Table VI row: one top core cell, the genre dominating its movie-mode
    * column, and how many of that genre's planted hours are among the
    * hour-mode column's top hours.
    */
  final case class RelationRow(rank: Int, relation: Relation, genre: Int, plantedHours: Int)

  /** Table VI: the top-|G|-value core cells read as relations between the
    * implicated factor columns; a relation is aligned when at least two of
    * the planted preferred hours of the genre that dominates the movie-mode
    * column are among the hour-mode column's top hours. Returns
    * (report, #aligned of topK).
    */
  def table6Relations(model: TuckerModel, topK: Int = 3): (Report[RelationRow], Int) = {
    val rels = RelationDiscovery.topRelations(model, topK, attrsPerMode = 5)
    val rows = rels.zipWithIndex.map { case (r, i) =>
      val genre = r.topAttributes(1).map(m => TensorGen.movieGenre(m, Movies))
        .groupBy(identity).maxBy(_._2.length)._1
      RelationRow(i + 1, r, genre, TensorGen.GenreHours(genre).count(r.topAttributes(3).contains))
    }
    val aligned = rows.count(_.plantedHours >= 2)
    val report = Report(s"Table VI — relations ($aligned/$topK aligned; paper found Drama-Hour, Comedy-Year, Year-Hour)",
      Seq("Relation", "G value", "Genre", "Top hours", "Top years", "Alignment"), rows) { r =>
      Seq(s"R${r.rank}", f"${r.relation.value}%.2f", genreName(r.genre),
        r.relation.topAttributes(3).mkString("hours{", ",", "}"),
        r.relation.topAttributes(2).mkString("years{", ",", "}"), s"${r.plantedHours}/5 planted hours")
    }
    (report, aligned)
  }
}

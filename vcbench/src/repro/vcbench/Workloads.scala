package repro.vcbench

import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, sum}
import org.apache.spark.sql.types._
import repro.algorithms.{PageRankProg, Reference, Scc, Sssp, Wcc}
import repro.diff.{CollectionExecutor, VertexProgram}
import repro.diff.CollectionExecutor.{Adaptive, DiffOnly, Mode, ViewStat}
import repro.graph.{GraphGen, PropertyGraph}
import repro.gvdl.Parser
import repro.ordering.{CollectionOrderer, Hamming}
import repro.views.{DiffStream, ViewCollection}

/** One analytics call over a collection, timed from outside. */
final case class Call(program: String, mode: String, wallS: Double, stats: Seq[ViewStat])

/** One pass: build the collection, then run the workload's analytics. */
final case class Pass(collection: ViewCollection, cctS: Double, calls: Seq[Call],
                      checked: Int, failures: Seq[String])

/** Result checks of a pass. Every check counts as attempted; a false or
  * throwing check is recorded as a failure.
  */
final class Checks {
  var attempted = 0
  val failures = ArrayBuffer.empty[String]

  def apply(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    val passed = try ok catch { case e: Exception => failures += s"$what: $e"; true }
    if (!passed) failures += what
  }
}

object Checks {
  /** Same keys and values within `tol` (exact when 0; infinities equal). */
  def close(got: Map[Long, Double], want: Map[Long, Double], tol: Double): Boolean =
    got.keySet == want.keySet && want.forall { case (v, w) =>
      val g = got(v)
      g == w || math.abs(g - w) <= tol * math.max(1.0, math.abs(w))
    }
}

/** A benchmark workload. Inputs are generated from `seed` only. */
abstract class Workload(val spark: SparkSession, val seed: Long) {

  /** Generate the inputs (replacing any earlier ones). */
  def setup(): Unit

  /** Build the collection and run the analytics, then compare every result
    * with its reference. The executor collects each view's result inside
    * the timed call (`keepResults`); the comparison runs after it.
    */
  def pass(): Pass

  /** Per-layer probes on a built collection, outside the timed calls. */
  def layers(c: ViewCollection): Map[String, Double] = Map.empty

  protected def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Build the collection `n` times; the last build and the median time. */
  protected def built(n: Int)(f: => ViewCollection): (ViewCollection, Double) = {
    val runs = (1 to n).map(_ => timed(f))
    (runs.last._1, runs.map(_._2).sorted.apply(n / 2))
  }

  protected def frame(rows: Seq[Row], schema: StructType): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), schema)

  protected def modeName(m: Mode): String = m match {
    case DiffOnly    => "diff-only"
    case Adaptive(_) => "adaptive"
    case _           => "scratch-only"
  }

  /** Run a vertex program over the collection; results at execution
    * position t are compared with `expected(t)`.
    */
  protected def vertexProgram(program: VertexProgram, mode: Mode, verts: DataFrame,
                              c: ViewCollection, checks: Checks,
                              tol: Double)(expected: Int => Map[Long, Double]): Call = {
    val (run, s) = timed(
      CollectionExecutor.run(spark, program, verts, c, mode, keepResults = true))
    for (t <- 0 until c.numViews)
      checks(s"${program.name} view ${c.viewNames(t)}")(
        Checks.close(run.results(t), expected(t), tol))
    Call(program.name, modeName(mode), s, run.stats)
  }

  /** Σ_t |δC_t| of `order` over per-edge view memberships `member(e)(j)`. */
  protected def transitions(member: Seq[Int => Boolean], order: Seq[Int]): Long =
    member.iterator.map { m =>
      var prev = false
      var n = 0L
      order.foreach { j => val cur = m(j); if (cur != prev) n += 1; prev = cur }
      n
    }.sum

  /** The EBM-side layer probes shared by predicate-built collections. */
  protected def ebmLayers(c: ViewCollection): Map[String, Double] = {
    val ebm = c.ebm.get
    val (d, hammingS) = timed(Hamming.distances(ebm, c.numViews))
    val (_, tspS) = timed(CollectionOrderer.fromDistances(d))
    val random = DiffStream.countDiffs(ebm, CollectionOrderer.randomOrder(c.numViews, seed))
    Map("views.ebm_rows" -> ebm.count().toDouble, "ordering.hamming_s" -> hammingS,
        "ordering.tsp_s" -> tspS, "ordering.random_diffs" -> random.toDouble)
  }

  /** The COP objective of an EBM-built collection, checked two ways. */
  protected def checkCop(c: ViewCollection, member: Seq[Int => Boolean], checks: Checks): Unit = {
    checks("cop_diffs = DiffStream.countDiffs under the chosen order")(
      DiffStream.countDiffs(c.ebm.get, c.order) == c.totalDiffs)
    checks("cop_diffs = reference transition count")(
      transitions(member, c.order) == c.totalDiffs)
  }
}

object Workload {

  def apply(name: String, spark: SparkSession, seed: Long): Workload = name match {
    case "small-delta"       => new SmallDelta(spark, seed)
    case "citation-adaptive" => new CitationAdaptive(spark, seed)
    case "community-252"     => new Community252(spark, seed)
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  val edgeSchema: StructType = StructType(Seq(
    StructField("eid", LongType), StructField("src", LongType),
    StructField("dst", LongType), StructField("weight", DoubleType)))
}

/** Table 2 C-small analog: a random digraph and an explicit-diff collection
  * whose every view adds and removes `Churn` of the edges; BF, PR and SCC
  * run in diff-only mode, so every view after the first is a trace replay
  * (SCC: a condensation update).
  */
final class SmallDelta(spark: SparkSession, seed: Long) extends Workload(spark, seed) {
  private val NV = 200L
  private val NE = 6000L
  private val Views = 2
  private val Churn = 0.0075
  private val PrIters = 2

  private val vids = (0L until NV).toVector
  private var perView: Seq[DataFrame] = Nil
  private var viewEdges: Seq[Vector[(Long, Long, Long, Double)]] = Nil
  private var diffRows = 0L
  private var source = 0L
  private var graph: PropertyGraph = _

  def setup(): Unit = {
    val g = GraphGen.randomGraph(spark, NV, NE, seed)
    val base = g.topology.collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3))).toVector
    val rnd = new Random(seed)
    val n = math.round(base.size * Churn).toInt
    var nextEid = base.map(_._1).max + 1
    val views = ArrayBuffer(base)
    val diffs = ArrayBuffer(base.map(e => (e, 1)))
    while (views.size < Views) {
      val cur = views.last
      val dels = rnd.shuffle(cur.indices.toVector).take(n).map(cur)
      val adds = Vector.newBuilder[(Long, Long, Long, Double)]
      var added = 0
      while (added < n) {
        val (s, d) = (rnd.nextLong(NV), rnd.nextLong(NV))
        if (s != d) {
          adds += ((nextEid, s, d, (1 + rnd.nextInt(9)).toDouble))
          nextEid += 1
          added += 1
        }
      }
      val gone = dels.map(_._1).toSet
      views += cur.filterNot(e => gone(e._1)) ++ adds.result()
      diffs += adds.result().map(e => (e, 1)) ++ dels.map(e => (e, -1))
    }
    val schema = Workload.edgeSchema.add("diff", IntegerType)
    perView = diffs.toSeq.map(d => frame(d.map { case ((e, s, t, w), x) => Row(e, s, t, w, x) }, schema))
    viewEdges = views.toSeq
    diffRows = diffs.map(_.size.toLong).sum
    source = base.map(_._2).min
    graph = g
  }

  def pass(): Pass = {
    val checks = new Checks
    // The build takes a fraction of a second; its median over several
    // builds is far steadier than one reading.
    val (c, cctS) = built(5)(ViewCollection.fromExplicitDiffs(spark, "C-small", perView))
    checks("cop_diffs = Σ explicit diff rows")(c.totalDiffs == diffRows)
    // A fresh frame per pass: the executor checkpoints the vertex frame's
    // RDD, and the previous pass's checkpoint blocks have been released.
    val verts = graph.vertexIds
    val bf = vertexProgram(Sssp(source), DiffOnly, verts, c, checks, 0.0) { t =>
      Reference.bellmanFord(vids, viewEdges(t).map(e => (e._2, e._3, e._4)), source)
    }
    val pr = vertexProgram(PageRankProg(PrIters), DiffOnly, verts, c, checks, 1e-6) { t =>
      Reference.pageRank(vids, viewEdges(t).map(e => (e._2, e._3)), PrIters)
    }
    val ((stats, sccs), sccS) = timed(Scc.runCollection(spark, verts, c, DiffOnly, keepResults = true))
    for (t <- 0 until c.numViews)
      checks(s"SCC view ${c.viewNames(t)}")(
        sccs(t) == Reference.scc(vids, viewEdges(t).map(e => (e._2, e._3))))
    Pass(c, cctS, Seq(bf, pr, Call("SCC", modeName(DiffOnly), sccS, stats)),
         checks.attempted, checks.failures.toSeq)
  }
}

/** Table 3 analog: the C_sl sliding-decade collection over a citation graph,
  * given as GVDL text and ordered by Graphsurge; WCC, PR and SCC run in
  * adaptive mode.
  */
final class CitationAdaptive(spark: SparkSession, seed: Long) extends Workload(spark, seed) {
  private val NV = 120L
  private val NE = 400L
  private val Decades = Seq(1986, 1991, 1996)
  private val PrIters = 2

  private val gvdl: String = "create view collection C_sl on Citations " +
    Decades.map { a =>
      val b = a + 9
      s"[d$a: src.year >= $a and src.year <= $b and dst.year >= $a and dst.year <= $b]"
    }.mkString(" ")

  private var graph: PropertyGraph = _
  private var vids: Vector[Long] = Vector.empty
  private var edges: Vector[(Long, Long)] = Vector.empty
  private var member: Seq[Int => Boolean] = Nil

  def setup(): Unit = {
    val g = GraphGen.citationGraph(spark, NV, NE, seed)
    val nodes = g.nodes.select("id", "year", "authors").collect()
    val es = g.edges.select("eid", "src", "dst", "weight").collect()
    graph = PropertyGraph(
      frame(nodes.toSeq, StructType(Seq(StructField("id", LongType),
        StructField("year", IntegerType), StructField("authors", IntegerType)))),
      frame(es.toSeq, Workload.edgeSchema))
    val year = nodes.map(r => r.getLong(0) -> r.getInt(1)).toMap
    vids = nodes.map(_.getLong(0)).toVector.sorted
    edges = es.map(r => (r.getLong(1), r.getLong(2))).toVector
    member = edges.map { case (s, d) =>
      (j: Int) => {
        val (a, b) = (Decades(j), Decades(j) + 9)
        year(s) >= a && year(s) <= b && year(d) >= a && year(d) <= b
      }
    }
  }

  /** Edges of original view j. */
  private def view(j: Int): Vector[(Long, Long)] =
    edges.indices.filter(i => member(i)(j)).map(edges).toVector

  def pass(): Pass = {
    val checks = new Checks
    val (c, cctS) = timed(
      ViewCollection.fromGvdl(graph, gvdl, ViewCollection.GraphsurgeOrder))
    checkCop(c, member, checks)
    val verts = graph.vertexIds
    val mode = Adaptive()
    val wcc = vertexProgram(Wcc(), mode, verts, c, checks, 0.0) { t =>
      Reference.wcc(vids, view(c.order(t)))
    }
    val pr = vertexProgram(PageRankProg(PrIters), mode, verts, c, checks, 1e-6) { t =>
      Reference.pageRank(vids, view(c.order(t)), PrIters)
    }
    val ((stats, sccs), sccS) = timed(Scc.runCollection(spark, verts, c, mode, keepResults = true))
    for (t <- 0 until c.numViews)
      checks(s"SCC view ${c.viewNames(t)}")(sccs(t) == Reference.scc(vids, view(c.order(t))))
    Pass(c, cctS, Seq(wcc, pr, Call("SCC", modeName(mode), sccS, stats)),
         checks.attempted, checks.failures.toSeq)
  }

  override def layers(c: ViewCollection): Map[String, Double] =
    ebmLayers(c) + ("gvdl.parse_s" -> timed(Parser.parse(gvdl))._2)
}

/** Table 4 analog: every 5-subset of the 10 largest communities removed —
  * 252 views, given as one GVDL statement and ordered by Graphsurge.
  * Collection creation is the whole cost; no analytics run.
  */
final class Community252(spark: SparkSession, seed: Long) extends Workload(spark, seed) {
  private val NV = 4000L
  private val NE = 23000L
  private val Removed: Seq[Seq[Int]] = (0 until 10).combinations(5).map(_.toSeq).toSeq

  private val gvdl: String = "create view collection C10_5 on Communities " +
    Removed.map { r =>
      s"[r${r.mkString("-")}: " +
        r.map(c => s"src.comm != $c and dst.comm != $c").mkString(" and ") + "]"
    }.mkString(", ")

  private var graph: PropertyGraph = _
  private var member: Seq[Int => Boolean] = Nil

  def setup(): Unit = {
    val g = GraphGen.communityGraph(spark, NV, NE, nComm = 12, seed = seed)
    val nodes = g.nodes.select("id", "comm").collect()
    val es = g.edges.select("eid", "src", "dst", "weight").collect()
    graph = PropertyGraph(
      frame(nodes.toSeq, StructType(Seq(StructField("id", LongType), StructField("comm", IntegerType)))),
      frame(es.toSeq, Workload.edgeSchema))
    val comm = nodes.map(r => r.getLong(0) -> r.getInt(1)).toMap
    val removedSets = Removed.map(_.toSet).toVector
    member = es.toSeq.map { r =>
      val (cs, cd) = (comm(r.getLong(1)), comm(r.getLong(2)))
      (j: Int) => !removedSets(j)(cs) && !removedSets(j)(cd)
    }
  }

  def pass(): Pass = {
    val checks = new Checks
    val (c, cctS) = timed(
      ViewCollection.fromGvdl(graph, gvdl, ViewCollection.GraphsurgeOrder))
    checkCop(c, member, checks)
    // |view at position t| = Σ_{s≤t} Σ δC_s, read back from the stream.
    val net = c.diffs.groupBy("t").agg(sum(col("diff")).as("n")).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    var size = 0L
    for (t <- 0 until c.numViews) {
      size += net.getOrElse(t, 0L)
      val j = c.order(t)
      checks(s"view ${c.viewNames(t)} edge count")(size == member.count(_(j)).toLong)
    }
    Pass(c, cctS, Nil, checks.attempted, checks.failures.toSeq)
  }

  override def layers(c: ViewCollection): Map[String, Double] =
    ebmLayers(c) + ("gvdl.parse_s" -> timed(Parser.parse(gvdl))._2)
}

package repro.diff

import repro.{ReproSpec, TestGraphs}
import repro.algorithms.{Bfs, PageRankProg, Reference, Sssp, Wcc}
import repro.graph.GraphGen
import repro.views.ViewCollection
import scala.util.Random

/** End-to-end executor behavior: all three modes agree on results; the
  * adaptive mode actually makes mode decisions; GVDL-built collections run
  * through the same path.
  */
class CollectionExecutorSpec extends ReproSpec {

  private def mkColl(seed: Int, nV: Int, views: Int, add: Int, del: Int) = {
    val rnd = new Random(seed)
    val init = TestGraphs.randomEdges(rnd, nV, nV * 3)
    val lists = TestGraphs.perturbationViews(rnd, nV, init, views, add, del)
    (lists, TestGraphs.collectionFrom(spark, s"exec$seed", lists))
  }

  test("diff-only, scratch, and adaptive all produce identical results") {
    val (lists, coll) = mkColl(61, nV = 30, views = 3, add = 10, del = 10)
    val verts = TestGraphs.vertices(spark, 30)
    val byMode = Seq(CollectionExecutor.DiffOnly, CollectionExecutor.ScratchOnly,
                     CollectionExecutor.Adaptive())
      .map(m => CollectionExecutor.run(spark, Wcc(), verts, coll, m, keepResults = true))
    for (t <- lists.indices) {
      val exp = Reference.wcc((0L until 30).toSeq, lists(t).map(e => (e.src, e.dst)))
      byMode.foreach(r => assert(r.results(t) == exp, s"view $t"))
    }
  }

  test("scratch-only never runs differentially; diff-only always does after view 0") {
    val (_, coll) = mkColl(62, nV = 25, views = 3, add = 5, del = 5)
    val verts = TestGraphs.vertices(spark, 25)
    val s = CollectionExecutor.run(spark, Bfs(0L), verts, coll, CollectionExecutor.ScratchOnly)
    assert(s.stats.forall(!_.ranDiff))
    val d = CollectionExecutor.run(spark, Bfs(0L), verts, coll, CollectionExecutor.DiffOnly)
    assert(!d.stats.head.ranDiff && d.stats.drop(1).forall(_.ranDiff))
  }

  test("adaptive bootstraps scratch-then-diff and then decides per view") {
    val (_, coll) = mkColl(63, nV = 25, views = 4, add = 5, del = 5)
    val verts = TestGraphs.vertices(spark, 25)
    val a = CollectionExecutor.run(spark, Bfs(0L), verts, coll, CollectionExecutor.Adaptive())
    assert(!a.stats(0).ranDiff)
    assert(a.stats(1).ranDiff)
    assert(a.stats.size == 4)
  }

  test("a GVDL-defined collection (inclusion chain) runs end to end") {
    val g = repro.graph.GraphGen.callGraph(spark, nV = 60, nE = 300)
    val coll = repro.views.ViewCollection.fromGvdl(g,
      """create view collection call-analysis on Calls
         [D8: duration≤8], [D16: duration≤16], [D25: duration≤25], [D34: duration≤34]""")
    assert(coll.numViews == 4)
    val run = CollectionExecutor.run(spark, Wcc(), g.vertexIds, coll,
                                     CollectionExecutor.DiffOnly, keepResults = true)
    // Check the last view against the reference over the full graph slice.
    val edges = g.resolved.where(org.apache.spark.sql.functions.col("duration") <= 34)
      .select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
    val verts = g.nodes.collect().map(_.getLong(0)).toSeq
    assert(run.results(3) == Reference.wcc(verts, edges.toSeq))
    // Inclusion chain ⇒ additions only after view 0.
    assert(coll.totalDiffs ==
      g.resolved.where(org.apache.spark.sql.functions.col("duration") <= 34).count())
  }

  test("a Graphsurge-ordered GVDL collection runs differentially to the reference") {
    val g = GraphGen.citationGraph(spark, nV = 60, nE = 240)
    // Three-decade windows sliding by 5 years; source 30 (year 1996) is in all.
    val windows = Seq(1970, 1975, 1980, 1985)
    val inWindow = (a: Int, y: Int) => y >= a && y <= a + 29
    val coll = ViewCollection.fromGvdl(g,
      "create view collection C_sl on Citations " + windows.map { a =>
        s"[w$a: src.year >= $a and src.year <= ${a + 29} and dst.year >= $a and dst.year <= ${a + 29}]"
      }.mkString(" "),
      ViewCollection.GraphsurgeOrder)
    val year = g.nodes.select("id", "year").collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val edges = g.edges.select("src", "dst", "weight").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
    val verts = year.keys.toSeq.sorted
    for (prog <- Seq(Wcc(), Bfs(30L), Sssp(30L), PageRankProg(4))) {
      val run = CollectionExecutor.run(spark, prog, g.vertexIds, coll,
                                       CollectionExecutor.DiffOnly, keepResults = true)
      assert(run.stats.drop(1).forall(_.ranDiff))
      for (t <- 0 until coll.numViews) {
        val a = coll.viewNames(t).drop(1).toInt
        val es = edges.filter { case (s, d, _) => inWindow(a, year(s)) && inWindow(a, year(d)) }
        val pairs = es.map(e => (e._1, e._2))
        val exp = prog match {
          case Wcc()           => Reference.wcc(verts, pairs)
          case Bfs(src)        => Reference.bfs(verts, pairs, src)
          case Sssp(src)       => Reference.bellmanFord(verts, es, src)
          case PageRankProg(k) => Reference.pageRank(verts, pairs, k)
          case other           => fail(s"no reference for ${other.name}")
        }
        val got = run.results(t)
        assert(got.keySet == exp.keySet, s"${prog.name} view ${coll.viewNames(t)}")
        got.foreach { case (v, x) =>
          val y = exp(v)
          assert((x.isInfinity && y.isInfinity) || math.abs(x - y) < 1e-6,
                 s"${prog.name} view ${coll.viewNames(t)} vertex $v: got $x expected $y")
        }
      }
    }
  }
}

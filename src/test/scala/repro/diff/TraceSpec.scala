package repro.diff

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The driver-side trace arrangement against a brute-force scan of the
  * same change-points.
  */
class TraceSpec extends AnyFunSuite {

  type Point = (Long, Int, Double)

  /** Change-points of vids 0..nV-1 (some without any) over iterations
    * 1..iters, at most one per `(vid, iter)`.
    */
  private def randomPoints(rnd: Random, nV: Int, iters: Int): Seq[Point] =
    for {
      v <- 0L until nV if v % 5 != 0
      i <- 1 to iters if rnd.nextDouble() < 0.4
    } yield (v, i, rnd.nextInt(100).toDouble)

  private def scanAt(ps: Seq[Point], v: Long, j: Int): Option[Double] =
    ps.filter(p => p._1 == v && p._2 <= j).maxByOption(_._2).map(_._3)

  private def scanLastChange(ps: Seq[Point], vs: Set[Long]): Int =
    ps.filter(p => vs(p._1)).map(_._2).maxOption.getOrElse(0)

  for (seed <- 1 to 3) {
    val rnd = new Random(seed)
    val nV = 30
    val iters = 8
    val ps = randomPoints(rnd, nV, iters)
    val trace = Trace(rnd.shuffle(ps))

    test(s"lookups at j and j-1 match a scan, with init for absent vids (seed=$seed)") {
      val init = (v: Long) => -v.toDouble
      for (v <- -1L to nV; j <- 1 to iters + 1; k <- Seq(j, j - 1)) {
        assert(trace.at(v, k).getOrElse(init(v)) == scanAt(ps, v, k).getOrElse(init(v)),
               s"vid $v at $k")
      }
      (0L until nV by 5).foreach(v => assert(trace.at(v, iters).isEmpty))
    }

    test(s"iteration 0 is the init state for every vid (seed=$seed)") {
      (0L until nV).foreach(v => assert(trace.at(v, 0).isEmpty))
    }

    test(s"last change of a vid set matches a scan (seed=$seed)") {
      assert(trace.lastIter == scanLastChange(ps, (0L until nV).toSet))
      for (_ <- 1 to 20) {
        val vs = Seq.fill(1 + rnd.nextInt(6))(rnd.nextInt(nV + 5).toLong)
        assert(trace.lastChange(vs) == scanLastChange(ps, vs.toSet), s"vids $vs")
      }
      assert(trace.lastChange(Nil) == 0)
    }

    test(s"patch replaces exactly the recomputed (vid, iter) pairs (seed=$seed)") {
      // A replay of 5 iterations: random affected sets, and change-points
      // among them (a change-point is always of a recomputed vertex).
      val affected = IndexedSeq.fill(5)(
        (0L until nV + 3).filter(_ => rnd.nextDouble() < 0.3).toArray)
      val changes = for {
        (a, i0) <- affected.zipWithIndex
        v <- a.toSeq if rnd.nextBoolean()
      } yield (v, i0 + 1, rnd.nextInt(100).toDouble)
      val kept = ps.filterNot(p => p._2 <= affected.size && affected(p._2 - 1).contains(p._1))
      val expected = (kept ++ changes).sortBy(p => (p._1, p._2))
      assert(trace.patch(affected, changes).points.toSeq == expected)
      assert(trace.patch(IndexedSeq.empty, Nil).points.toSeq == ps.sortBy(p => (p._1, p._2)))
    }
  }

  test("the empty trace holds nothing") {
    val empty = Trace(Nil)
    assert(empty.points.isEmpty && empty.lastIter == 0)
    assert(empty.at(3L, 5).isEmpty)
    assert(empty.patch(IndexedSeq(Array(1L)), Seq((1L, 1, 2.0))).points.toSeq == Seq((1L, 1, 2.0)))
  }

  test("duplicate change-points are rejected") {
    intercept[IllegalArgumentException](Trace(Seq((1L, 2, 1.0), (1L, 2, 3.0))))
  }
}

//! Mesh topology: coordinates, ports and dimension-ordered (XY) routing.

/// A node coordinate in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u16,
    /// Row (0 = south edge).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan (hop) distance to another coordinate.
    pub fn hop_distance(self, other: Coord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }
}

impl core::fmt::Display for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A router port direction; `Local` is the injection/ejection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards larger `y`.
    North,
    /// Towards smaller `y`.
    South,
    /// Towards larger `x`.
    East,
    /// Towards smaller `x`.
    West,
    /// The attached core.
    Local,
}

impl Direction {
    /// All five ports in canonical order (the index used across the
    /// router's port arrays).
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::Local,
    ];

    /// The canonical port index of this direction.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The direction a flit leaving through `self` arrives *from* at the
    /// neighbouring router, or `None` for `Local` (the local port has no
    /// opposite). Returning `None` instead of panicking keeps a bad route
    /// an error value rather than an abort in a million-packet run.
    pub fn opposite(self) -> Option<Direction> {
        match self {
            Direction::North => Some(Direction::South),
            Direction::South => Some(Direction::North),
            Direction::East => Some(Direction::West),
            Direction::West => Some(Direction::East),
            Direction::Local => None,
        }
    }

    /// The four mesh (non-local) directions.
    pub const MESH: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// `true` for the four inter-router ports, `false` for `Local`.
    pub fn is_mesh(self) -> bool {
        !matches!(self, Direction::Local)
    }
}

impl core::fmt::Display for Direction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// The mesh fabric: dimensions and coordinate arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    cols: u16,
    rows: u16,
}

impl Mesh {
    /// Creates a `cols x rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        Self { cols, rows }
    }

    /// Number of columns.
    pub fn cols(self) -> u16 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(self) -> u16 {
        self.rows
    }

    /// Total node count.
    pub fn len(self) -> usize {
        usize::from(self.cols) * usize::from(self.rows)
    }

    /// `false` — a mesh always has at least one node (kept for the
    /// `len`/`is_empty` API convention).
    pub fn is_empty(self) -> bool {
        false
    }

    /// Flattened index of a coordinate (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn index_of(self, c: Coord) -> usize {
        assert!(self.contains(c), "coordinate {c} outside {self}");
        usize::from(c.y) * usize::from(self.cols) + usize::from(c.x)
    }

    /// Coordinate of a flattened index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "index % cols < cols, and index < rows * cols gives index / cols < rows; both are u16"
    )]
    pub fn coord_of(self, index: usize) -> Coord {
        assert!(index < self.len(), "index {index} outside {self}");
        Coord::new(
            (index % usize::from(self.cols)) as u16,
            (index / usize::from(self.cols)) as u16,
        )
    }

    /// Whether the coordinate lies inside the mesh.
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.cols && c.y < self.rows
    }

    /// The neighbouring coordinate in a direction, if it exists. `Local`
    /// has no neighbour (the port loops back into the attached core), so
    /// it yields `None` like an off-mesh edge does.
    pub fn neighbor(self, c: Coord, dir: Direction) -> Option<Coord> {
        match dir {
            Direction::North => {
                if c.y + 1 < self.rows {
                    Some(Coord::new(c.x, c.y + 1))
                } else {
                    None
                }
            }
            Direction::South => c.y.checked_sub(1).map(|y| Coord::new(c.x, y)),
            Direction::East => {
                if c.x + 1 < self.cols {
                    Some(Coord::new(c.x + 1, c.y))
                } else {
                    None
                }
            }
            Direction::West => c.x.checked_sub(1).map(|x| Coord::new(x, c.y)),
            Direction::Local => None,
        }
    }

    /// Dimension-ordered (X-then-Y) routing: the output port at `here`
    /// for a packet heading to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is outside the mesh.
    pub fn xy_route(self, here: Coord, dst: Coord) -> Direction {
        assert!(
            self.contains(here) && self.contains(dst),
            "route outside mesh"
        );
        if here.x < dst.x {
            Direction::East
        } else if here.x > dst.x {
            Direction::West
        } else if here.y < dst.y {
            Direction::North
        } else if here.y > dst.y {
            Direction::South
        } else {
            Direction::Local
        }
    }

    /// The full XY path from `src` to `dst`, inclusive of both endpoints.
    pub fn xy_path(self, src: Coord, dst: Coord) -> Vec<Coord> {
        let mut path = vec![src];
        let mut here = src;
        while here != dst {
            let dir = self.xy_route(here, dst);
            // XY routing toward an in-mesh destination never walks off the
            // edge; an off-mesh `dst` yields the partial path instead of
            // panicking (or looping).
            let Some(next) = self.neighbor(here, dir) else {
                break;
            };
            here = next;
            path.push(here);
        }
        path
    }

    /// Iterates over every coordinate (row-major).
    pub fn iter(self) -> impl Iterator<Item = Coord> {
        (0..self.len()).map(move |i| self.coord_of(i))
    }
}

impl core::fmt::Display for Mesh {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{} mesh", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let m = Mesh::new(8, 8);
        for i in 0..m.len() {
            assert_eq!(m.index_of(m.coord_of(i)), i);
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let a = Coord::new(1, 2);
        let b = Coord::new(4, 0);
        assert_eq!(a.hop_distance(b), 5);
        assert_eq!(b.hop_distance(a), 5);
        assert_eq!(a.hop_distance(a), 0);
    }

    #[test]
    fn edges_have_no_outward_neighbors() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.neighbor(Coord::new(0, 0), Direction::West), None);
        assert_eq!(m.neighbor(Coord::new(0, 0), Direction::South), None);
        assert_eq!(m.neighbor(Coord::new(3, 3), Direction::East), None);
        assert_eq!(m.neighbor(Coord::new(3, 3), Direction::North), None);
        assert_eq!(
            m.neighbor(Coord::new(1, 1), Direction::East),
            Some(Coord::new(2, 1))
        );
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh::new(8, 8);
        let src = Coord::new(1, 1);
        let dst = Coord::new(4, 5);
        assert_eq!(m.xy_route(src, dst), Direction::East);
        // Once x matches, go in y.
        assert_eq!(m.xy_route(Coord::new(4, 1), dst), Direction::North);
        assert_eq!(m.xy_route(dst, dst), Direction::Local);
    }

    #[test]
    fn xy_path_has_hop_distance_plus_one_nodes() {
        let m = Mesh::new(8, 8);
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 4);
        let path = m.xy_path(src, dst);
        assert_eq!(path.len(), src.hop_distance(dst) as usize + 1);
        assert_eq!(path[0], src);
        assert_eq!(*path.last().unwrap(), dst);
        // Each step is one hop.
        for w in path.windows(2) {
            assert_eq!(w[0].hop_distance(w[1]), 1);
        }
    }

    #[test]
    fn opposite_ports_pair_up() {
        assert_eq!(Direction::North.opposite(), Some(Direction::South));
        assert_eq!(Direction::East.opposite(), Some(Direction::West));
        for d in Direction::MESH {
            assert!(d.is_mesh());
            assert_eq!(d.opposite().and_then(Direction::opposite), Some(d));
        }
    }

    #[test]
    fn local_has_no_opposite_or_neighbor() {
        assert_eq!(Direction::Local.opposite(), None);
        assert!(!Direction::Local.is_mesh());
        let m = Mesh::new(4, 4);
        assert_eq!(m.neighbor(Coord::new(1, 1), Direction::Local), None);
    }

    #[test]
    fn direction_indices_are_unique() {
        let mut seen = [false; 5];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_mesh_rejected() {
        let _ = Mesh::new(0, 4);
    }

    #[test]
    fn iter_covers_all_nodes() {
        let m = Mesh::new(3, 2);
        let coords: Vec<Coord> = m.iter().collect();
        assert_eq!(coords.len(), 6);
        assert!(coords.contains(&Coord::new(2, 1)));
    }
}
